//! Object layout: flattened instance-field offsets and static storage.
//!
//! Both engines describe their class tables through [`ClassShape`] and
//! get identical layouts, so heap objects are interchangeable between
//! them in tests.

use crate::value::Value;

/// Minimal class description needed for layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassShape {
    /// Superclass index, if any.
    pub superclass: Option<usize>,
    /// Declared instance-field count.
    pub instance_fields: usize,
    /// Declared static-field count.
    pub static_fields: usize,
}

/// Computed layout for a class table.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// Field offset base per class (inherited fields come first).
    base: Vec<usize>,
    /// Total instance slots per class.
    total: Vec<usize>,
}

impl Layout {
    /// Computes the layout for `shapes` (indices must be closed under
    /// `superclass` and acyclic). Iterative and linear: each class
    /// climbs only to the nearest superclass already laid out, so a
    /// deep hierarchy cannot exhaust the stack.
    ///
    /// # Panics
    ///
    /// Panics on a superclass cycle.
    pub fn build(shapes: &[ClassShape]) -> Layout {
        let n = shapes.len();
        let mut base = vec![usize::MAX; n];
        let mut total = vec![usize::MAX; n];
        let mut chain = Vec::new();
        for i in 0..n {
            let mut cur = Some(i);
            while let Some(c) = cur.filter(|&c| total[c] == usize::MAX) {
                assert!(chain.len() < n, "superclass cycle through class {c}");
                chain.push(c);
                cur = shapes[c].superclass;
            }
            let mut b = cur.map_or(0, |c| total[c]);
            for c in chain.drain(..).rev() {
                base[c] = b;
                b += shapes[c].instance_fields;
                total[c] = b;
            }
        }
        Layout { base, total }
    }

    /// The flattened slot of field `field_idx` declared by `class`.
    pub fn field_slot(&self, class: usize, field_idx: usize) -> usize {
        self.base[class] + field_idx
    }

    /// Number of instance slots an instance of `class` needs.
    pub fn instance_size(&self, class: usize) -> usize {
        self.total[class]
    }

    /// Fresh zero/null-initialized field storage for `class`, given a
    /// per-slot default supplier.
    pub fn fresh_fields(&self, class: usize, default: impl Fn(usize) -> Value) -> Vec<Value> {
        (0..self.instance_size(class)).map(default).collect()
    }
}

/// Static-field storage: one vector of values per class.
#[derive(Debug, Clone, Default)]
pub struct Statics {
    slots: Vec<Vec<Value>>,
}

impl Statics {
    /// Creates storage sized by `shapes` with `Value::NULL` defaults
    /// (engines overwrite with typed defaults before running clinit).
    pub fn build(shapes: &[ClassShape]) -> Statics {
        Statics {
            slots: shapes
                .iter()
                .map(|s| vec![Value::NULL; s.static_fields])
                .collect(),
        }
    }

    /// Reads a static field.
    pub fn get(&self, class: usize, field: usize) -> Value {
        self.slots[class][field]
    }

    /// Writes a static field.
    pub fn set(&mut self, class: usize, field: usize, v: Value) {
        self.slots[class][field] = v;
    }

    /// Overwrites the default value of one slot (typed zero).
    pub fn init_default(&mut self, class: usize, field: usize, v: Value) {
        self.slots[class][field] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inherited_fields_come_first() {
        // 0: Object (0 fields), 1: A (2 fields), 2: B extends A (1 field)
        let shapes = vec![
            ClassShape {
                superclass: None,
                instance_fields: 0,
                static_fields: 0,
            },
            ClassShape {
                superclass: Some(0),
                instance_fields: 2,
                static_fields: 1,
            },
            ClassShape {
                superclass: Some(1),
                instance_fields: 1,
                static_fields: 0,
            },
        ];
        let l = Layout::build(&shapes);
        assert_eq!(l.instance_size(0), 0);
        assert_eq!(l.instance_size(1), 2);
        assert_eq!(l.instance_size(2), 3);
        assert_eq!(l.field_slot(1, 0), 0);
        assert_eq!(l.field_slot(1, 1), 1);
        assert_eq!(l.field_slot(2, 0), 2);
    }

    #[test]
    fn forward_superclass_reference() {
        // 0: B extends A(1), 1: A (declared after its subclass).
        let shapes = vec![
            ClassShape {
                superclass: Some(1),
                instance_fields: 1,
                static_fields: 0,
            },
            ClassShape {
                superclass: None,
                instance_fields: 2,
                static_fields: 0,
            },
        ];
        let l = Layout::build(&shapes);
        assert_eq!(l.instance_size(0), 3);
        assert_eq!(l.field_slot(0, 0), 2);
    }

    #[test]
    fn statics_storage() {
        let shapes = vec![ClassShape {
            superclass: None,
            instance_fields: 0,
            static_fields: 2,
        }];
        let mut s = Statics::build(&shapes);
        s.init_default(0, 0, Value::I(0));
        s.set(0, 1, Value::I(7));
        assert_eq!(s.get(0, 0), Value::I(0));
        assert_eq!(s.get(0, 1), Value::I(7));
    }
}

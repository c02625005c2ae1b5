//! A hostile class hierarchy at the wire trust boundary. A few hundred
//! kilobytes can declare a superclass chain 100,000 classes deep; every
//! walk over the hierarchy (cycle check, dispatch-table derivation, the
//! VM's vtables, field defaults and layout) is iterative and linear, so
//! such a stream is decoded, verified and loaded — or, with a cycle,
//! rejected — on a default-sized thread stack in bounded time, and a
//! serve daemon that receives it keeps answering. A class count the
//! stream is too short to declare is refused before any class is.

use safetsa::codec::{decode_and_verify, encode_module, HostEnv};
use safetsa::core::types::{ClassId, ClassInfo};
use safetsa::core::Module;
use safetsa::server::client::{request_obj, Client};
use safetsa::server::{BindAddr, Server, ServerConfig};
use safetsa_telemetry::Json;
use std::time::{Duration, Instant};

const DEPTH: usize = 100_000;

/// The Rust default for spawned threads, pinned so the environment
/// cannot enlarge it.
const DEFAULT_STACK: usize = 2 << 20;

/// A module whose `depth` local classes form one chain: class `i`
/// extends class `i + 1`, so the most derived class comes first. The
/// last class extends `Object`, or, with `cycle`, the first one.
fn chain_stream(depth: usize, cycle: bool) -> Vec<u8> {
    let host = HostEnv::standard();
    let mut types = host.types;
    let first = types.class_count() as u32;
    for i in 0..depth as u32 {
        let sup = match (i + 1 < depth as u32, cycle) {
            (true, _) => ClassId(first + i + 1),
            (false, false) => host.well_known.object,
            (false, true) => ClassId(first),
        };
        types.declare_class(ClassInfo {
            name: String::new(),
            superclass: Some(sup),
            fields: vec![],
            methods: vec![],
            imported: false,
        });
    }
    let m = Module {
        name: "Chain".into(),
        types,
        well_known: host.well_known,
        functions: vec![],
    };
    encode_module(&m).expect("a class table always encodes")
}

/// Runs `f` on a fresh default-sized thread and returns its result and
/// wall time.
fn on_default_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> (T, Duration) {
    std::thread::Builder::new()
        .stack_size(DEFAULT_STACK)
        .spawn(move || {
            let t0 = Instant::now();
            let r = f();
            (r, t0.elapsed())
        })
        .unwrap()
        .join()
        .expect("no panic, no stack overflow")
}

#[test]
fn deep_chain_decodes_verifies_and_loads_on_a_default_stack() {
    let bytes = chain_stream(DEPTH, false);
    assert!(bytes.len() < 512 * 1024, "{} bytes", bytes.len());
    let (loaded, took) = on_default_stack(move || {
        let m = decode_and_verify(&bytes, &HostEnv::standard()).map_err(|e| e.to_string())?;
        let classes = m.types.class_count();
        safetsa::vm::Vm::load(&m).map_err(|e| e.to_string())?;
        Ok::<_, String>(classes)
    });
    let classes = loaded.expect("a field-less chain is a valid module");
    assert!(classes > DEPTH);
    // Linear work takes well under a second; a walk that is quadratic
    // in the depth (10^10 steps here) cannot finish in the bound.
    assert!(took < Duration::from_secs(20), "took {took:?}");
}

#[test]
fn deep_cycle_is_rejected_on_a_default_stack() {
    let bytes = chain_stream(DEPTH, true);
    let (verdict, took) = on_default_stack(move || {
        decode_and_verify(&bytes, &HostEnv::standard()).map_err(|e| e.to_string())
    });
    let err = verdict.expect_err("a superclass cycle is rejected");
    assert!(err.contains("superclass cycle"), "{err}");
    assert!(took < Duration::from_secs(20), "took {took:?}");
}

#[test]
fn class_count_the_stream_cannot_back_is_rejected_up_front() {
    use safetsa::codec::bits::BitWriter;
    use safetsa::codec::layout::{MAGIC, VERSION};
    let host = HostEnv::standard();
    let n_builtin = host.types.class_count() as u64;
    // A dozen bytes that announce four million local classes.
    let mut w = BitWriter::new();
    w.bits(u64::from(MAGIC), 32);
    w.bits(u64::from(VERSION), 8);
    w.string("");
    w.gamma(n_builtin + 4_000_000);
    w.gamma(n_builtin);
    let bytes = w.into_bytes();
    let (verdict, took) = on_default_stack(move || {
        decode_and_verify(&bytes, &HostEnv::standard()).map_err(|e| e.to_string())
    });
    let err = verdict.expect_err("rejected");
    assert!(err.contains("class count exceeds the stream"), "{err}");
    assert!(took < Duration::from_secs(1), "took {took:?}");
}

#[test]
fn serve_survives_a_deep_chain() {
    let server = Server::bind(ServerConfig {
        bind: BindAddr::Tcp("127.0.0.1:0".into()),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback daemon");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run();
    });
    let hex: String = chain_stream(DEPTH, false)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let status = |resp: &Json| match resp.get("status") {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("response without status: {other:?}"),
    };
    let mut verify = request_obj("verify", "chain");
    verify.set("tsa", Json::Str(hex.clone()));
    let resp = client.request(&verify).expect("verify response");
    assert_eq!(status(&resp), "ok", "{}", resp.render());
    // `run` loads the module into the VM before looking up the entry.
    let mut run = request_obj("run", "chain-run");
    run.set("tsa", Json::Str(hex));
    run.set("entry", Json::Str("Chain.main".into()));
    let resp = client.request(&run).expect("run response");
    assert_eq!(status(&resp), "error", "{}", resp.render());
    let resp = client
        .request(&request_obj("ping", "still-alive"))
        .expect("ping");
    assert_eq!(status(&resp), "ok");
    handle.request_shutdown();
    join.join().expect("daemon drains");
}

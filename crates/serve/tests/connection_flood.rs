//! A long run of short connections must not leak per-connection resources. Every exchange
//! with a `DeltaServer` runs on its own handler thread; a handler left unjoined keeps its
//! stack mapped, so the process's memory-map count would grow by about two per connection
//! until thread spawns fail. This test lives in its own binary so the map count it reads
//! belongs to this one test.

#![cfg(target_os = "linux")]

use dynsld_engine::ServiceBuilder;
use dynsld_serve::{DeltaServer, WireSubscriber};
use dynsld_telemetry::Telemetry;

fn mapped_regions() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("procfs is readable")
        .lines()
        .count()
}

#[test]
fn sequential_requests_do_not_grow_the_memory_map() {
    let service = ServiceBuilder::new()
        .vertices(4)
        .build()
        .expect("valid configuration");
    let server = DeltaServer::bind("127.0.0.1:0", service.read_handle(), Telemetry::disabled())
        .expect("bind");
    let mut subscriber = WireSubscriber::connect(server.local_addr()).expect("connect");
    // Warm up: the first exchanges map the allocator arenas and thread-stack cache.
    for _ in 0..100 {
        subscriber.head().expect("head");
    }
    let before = mapped_regions();
    for _ in 0..3000 {
        subscriber.head().expect("head");
    }
    let grown = mapped_regions().saturating_sub(before);
    assert!(
        grown < 100,
        "3000 requests grew the memory map by {grown} regions"
    );
    server.shutdown();
}

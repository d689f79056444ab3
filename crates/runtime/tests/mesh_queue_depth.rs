//! `rcuarray_transport_queue_depth` is read at snapshot time from the
//! live meshes' inboxes (DESIGN.md §7), so telemetry toggled while
//! frames are in flight cannot leave it off: once the cluster is idle,
//! it reads zero.
//!
//! A binary of its own: the test flips the process-wide enable flag.

use rcuarray_runtime::task::with_locale;
use rcuarray_runtime::{Cluster, CommMessage, LocaleId, TransportKind};
use std::sync::atomic::{AtomicBool, Ordering};

const SENDS_PER_THREAD: usize = 4_000;

#[test]
fn queue_depth_reads_zero_once_idle_despite_toggling() {
    let c = Cluster::builder()
        .locales(3)
        .backend(TransportKind::Mesh)
        .build();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let toggler = s.spawn(|| {
            let mut flips = 0u64;
            while !stop.load(Ordering::Acquire) {
                if rcuarray_obs::enabled() {
                    rcuarray_obs::disable();
                } else {
                    rcuarray_obs::enable();
                }
                flips += 1;
                std::thread::yield_now();
            }
            rcuarray_obs::enable();
            flips
        });
        let senders: Vec<_> = (0..2u32)
            .map(|i| {
                let c = &c;
                s.spawn(move || {
                    let (me, peer) = (LocaleId::new(i), LocaleId::new(2));
                    with_locale(me, || {
                        for _ in 0..SENDS_PER_THREAD {
                            c.send_to(peer, CommMessage::Get { bytes: 8 }).unwrap();
                        }
                    })
                })
            })
            .collect();
        for h in senders {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        assert!(toggler.join().unwrap() > 0, "the toggler flipped the flag");
    });
    let depth = rcuarray_obs::snapshot().gauge("rcuarray_transport_queue_depth");
    assert_eq!(depth, Some(0), "an idle mesh has no queued frames");
}

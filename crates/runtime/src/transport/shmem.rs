//! The shared-memory backend: the pre-seam direct-access path.
//!
//! In the simulation all locale memory lives in one address space, so a
//! "transmission" has nothing to move — the data is already wherever
//! the destination will read it. `transmit` therefore only meters the
//! link (and, when enabled, records delivery order); it never blocks
//! and never fails. This preserves the zero-copy fast path and the
//! exact `CommStats`/`FaultStats` accounting the workspace's locality
//! tests assert, while still exercising the same [`Transport`] seam the
//! mesh backend does.

use super::{CommMessage, DeliveryLog, LinkMatrix, LinkStats, Transport, TransportKind};
use crate::fault::CommError;
use crate::locale::LocaleId;
use std::sync::Arc;

/// Direct shared-memory transport: metering only, delivery is implicit.
#[derive(Debug)]
pub struct ShmemTransport {
    links: Arc<LinkMatrix>,
    log: DeliveryLog,
}

impl ShmemTransport {
    /// A shmem transport for an `n`-locale cluster.
    pub fn new(n: usize) -> Self {
        Self::with_links(Arc::new(LinkMatrix::new(n)))
    }

    /// A shmem transport metering into `links`.
    pub(crate) fn with_links(links: Arc<LinkMatrix>) -> Self {
        ShmemTransport {
            log: DeliveryLog::new(links.locales()),
            links,
        }
    }
}

impl Transport for ShmemTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Shmem
    }

    #[inline]
    fn transmit(&self, from: LocaleId, to: LocaleId, msg: &CommMessage) -> Result<(), CommError> {
        debug_assert_ne!(from, to, "local accesses never reach the transport");
        self.links.record(from, to, msg.payload_bytes());
        // Send *is* delivery on shared memory: the log stays strictly
        // in send order per link.
        self.log.record_in_order(from, to);
        Ok(())
    }

    fn link_stats(&self, from: LocaleId, to: LocaleId) -> LinkStats {
        self.links.stats(from, to)
    }

    fn enable_delivery_log(&self) {
        self.log.enable();
    }

    fn delivery_log(&self, from: LocaleId, to: LocaleId) -> Vec<u64> {
        self.log.snapshot(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LocaleId {
        LocaleId::new(i)
    }

    #[test]
    fn transmit_meters_the_link_and_never_fails() {
        let t = ShmemTransport::new(2);
        for _ in 0..10 {
            t.transmit(l(0), l(1), &CommMessage::Put { bytes: 32 })
                .unwrap();
        }
        let s = t.link_stats(l(0), l(1));
        assert_eq!(s.messages, 10);
        assert_eq!(s.bytes, 320);
        assert_eq!(t.link_stats(l(1), l(0)), LinkStats::default());
    }

    #[test]
    fn delivery_log_is_in_send_order() {
        let t = ShmemTransport::new(2);
        t.enable_delivery_log();
        for _ in 0..5 {
            t.transmit(l(0), l(1), &CommMessage::Get { bytes: 8 })
                .unwrap();
        }
        assert_eq!(t.delivery_log(l(0), l(1)), vec![0, 1, 2, 3, 4]);
        assert!(t.delivery_log(l(1), l(0)).is_empty());
    }
}

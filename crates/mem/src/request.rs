//! Memory request descriptors.

/// Unique identifier of an in-flight memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub(crate) u64);

impl ReqId {
    /// The raw id.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// What a memory request is fetching, for per-class traffic accounting.
///
/// The paper's Figs. 11–14 break off-chip traffic down by purpose; the
/// simulators tag every request so the harness can regenerate those
/// breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Vertex property read.
    VertexRead,
    /// Vertex property write-back.
    VertexWrite,
    /// CSR edge-list read.
    EdgeRead,
    /// Inter-slice event spill to off-chip buffers (§IV-F).
    EventSpill,
    /// Inter-slice event fill from off-chip buffers (§IV-F).
    EventFill,
    /// Anything else.
    Other,
}

impl TrafficClass {
    /// All classes, for iteration in reports.
    pub const ALL: [TrafficClass; 6] = [
        TrafficClass::VertexRead,
        TrafficClass::VertexWrite,
        TrafficClass::EdgeRead,
        TrafficClass::EventSpill,
        TrafficClass::EventFill,
        TrafficClass::Other,
    ];

    pub(crate) fn index(self) -> usize {
        match self {
            TrafficClass::VertexRead => 0,
            TrafficClass::VertexWrite => 1,
            TrafficClass::EdgeRead => 2,
            TrafficClass::EventSpill => 3,
            TrafficClass::EventFill => 4,
            TrafficClass::Other => 5,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::VertexRead => "vertex-read",
            TrafficClass::VertexWrite => "vertex-write",
            TrafficClass::EdgeRead => "edge-read",
            TrafficClass::EventSpill => "event-spill",
            TrafficClass::EventFill => "event-fill",
            TrafficClass::Other => "other",
        }
    }
}

/// One off-chip memory transaction.
///
/// `useful_bytes` records how many of the transferred bytes the requester
/// will actually consume (e.g. an 8-byte vertex property out of a 64-byte
/// burst) and feeds the Fig. 12 utilization metric. It defaults to the full
/// transfer size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemRequest {
    pub(crate) id: ReqId,
    addr: u64,
    bytes: u32,
    useful_bytes: u32,
    write: bool,
    class: TrafficClass,
}

impl MemRequest {
    /// A read of `bytes` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn read(addr: u64, bytes: u32, class: TrafficClass) -> Self {
        assert!(bytes > 0, "zero-byte memory request");
        MemRequest {
            id: ReqId(0),
            addr,
            bytes,
            useful_bytes: bytes,
            write: false,
            class,
        }
    }

    /// A write of `bytes` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn write(addr: u64, bytes: u32, class: TrafficClass) -> Self {
        MemRequest {
            write: true,
            ..Self::read(addr, bytes, class)
        }
    }

    /// Overrides the number of bytes the requester will consume.
    ///
    /// # Panics
    ///
    /// Panics if `useful > self.bytes()`.
    pub fn with_useful_bytes(mut self, useful: u32) -> Self {
        assert!(useful <= self.bytes, "useful bytes exceed transfer size");
        self.useful_bytes = useful;
        self
    }

    /// Request id (assigned by the memory system on submission).
    pub fn id(&self) -> ReqId {
        self.id
    }

    /// Start address.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Transfer size in bytes.
    pub fn bytes(&self) -> u32 {
        self.bytes
    }

    /// Bytes the requester consumes.
    pub fn useful_bytes(&self) -> u32 {
        self.useful_bytes
    }

    /// Traffic class tag.
    pub fn class(&self) -> TrafficClass {
        self.class
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_direction() {
        let w = MemRequest::write(0x100, 8, TrafficClass::VertexWrite);
        assert_ne!(w, MemRequest::read(0x100, 8, TrafficClass::VertexWrite));
        assert_eq!(w.bytes(), 8);
        assert_eq!(w.useful_bytes(), 8);
    }

    #[test]
    fn useful_bytes_clamped() {
        let r = MemRequest::read(0, 64, TrafficClass::EdgeRead).with_useful_bytes(12);
        assert_eq!(r.useful_bytes(), 12);
    }

    #[test]
    #[should_panic(expected = "useful bytes exceed")]
    fn oversized_useful_rejected() {
        let _ = MemRequest::read(0, 8, TrafficClass::Other).with_useful_bytes(9);
    }

    #[test]
    fn class_indices_are_distinct() {
        let mut idx: Vec<usize> = TrafficClass::ALL.iter().map(|c| c.index()).collect();
        idx.dedup();
        assert_eq!(idx.len(), 6);
    }
}

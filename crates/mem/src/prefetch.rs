//! Prefetch address generation: line-granular address math for block
//! reads. The generation units' degree-hinted N-block edge prefetch (§V)
//! is the cycle model's own (`Machine::issue_edge_prefetch` in
//! `graphpulse-core`).

use crate::{line_base, LINE_BYTES};

/// The line addresses covering the byte range `[addr, addr + bytes)`.
///
/// Used for block reads that stream a DRAM page in whole lines, such as the
/// Graphicionado model's edge-list reads.
///
/// ```
/// let lines: Vec<u64> = gp_mem::prefetch::lines_covering(100, 100).collect();
/// assert_eq!(lines, vec![64, 128, 192]);
/// ```
pub fn lines_covering(addr: u64, bytes: u64) -> impl Iterator<Item = u64> {
    let first = line_base(addr);
    let last = if bytes == 0 {
        first
    } else {
        line_base(addr + bytes - 1)
    };
    (first..=last).step_by(LINE_BYTES as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covering_handles_alignment() {
        let v: Vec<u64> = lines_covering(0, 64).collect();
        assert_eq!(v, vec![0]);
        let v: Vec<u64> = lines_covering(63, 2).collect();
        assert_eq!(v, vec![0, 64]);
        let v: Vec<u64> = lines_covering(128, 0).collect();
        assert_eq!(v, vec![128]);
    }
}

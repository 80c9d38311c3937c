//! Byte-size model for distance-vector packets.

/// Sizes used to convert a distance vector into on-air bytes.
///
/// The paper does not specify its DBF packet layout; we use a compact
/// encoding consistent with its 2-byte ADV/REQ packets: a 2-byte header plus
/// 4 bytes per entry (2-byte destination id, 1-byte quantized cost, 1-byte
/// hop count). Every DBF execution prices its messages with
/// [`DbfWireFormat::default`], and so does the convergence-pause model, so
/// the energy charged and the pause can never disagree.
///
/// # Example
///
/// ```
/// use spms_routing::DbfWireFormat;
///
/// let wire = DbfWireFormat::default();
/// assert_eq!(wire.message_bytes(10), 42);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DbfWireFormat {
    /// Fixed per-message header bytes.
    pub header_bytes: u32,
    /// Bytes per (destination, cost, hops) entry.
    pub entry_bytes: u32,
}

impl DbfWireFormat {
    /// Total bytes for a message carrying `entries` vector entries.
    #[must_use]
    pub fn message_bytes(&self, entries: usize) -> u32 {
        self.header_bytes + self.entry_bytes * entries as u32
    }
}

impl Default for DbfWireFormat {
    fn default() -> Self {
        DbfWireFormat {
            header_bytes: 2,
            entry_bytes: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sizes() {
        let w = DbfWireFormat::default();
        assert_eq!(w.header_bytes, 2);
        assert_eq!(w.entry_bytes, 4);
        assert_eq!(w.message_bytes(0), 2);
        assert_eq!(w.message_bytes(45), 182);
    }
}

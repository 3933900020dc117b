use crate::{StreamId, BLOCK_SHIFT};

/// Bits of [`Access`]'s packed word below the address.
const ADDR_SHIFT: u32 = 5;
/// The write flag's bit.
const WRITE_SHIFT: u32 = 4;
/// The stream code's bits ([`StreamId::index`]).
const STREAM_MASK: u64 = 0xf;

/// Stream of each 4-bit code; codes past [`StreamId::ALL`] are never
/// packed.
const STREAMS: [StreamId; 16] = {
    let mut table = [StreamId::Other; 16];
    let mut i = 0;
    while i < StreamId::ALL.len() {
        table[i] = StreamId::ALL[i];
        i += 1;
    }
    table
};

/// One load or store issued to a cache.
///
/// Accesses are byte-addressed; cache models derive the block address via
/// [`Access::block`]. The stream tag travels with the access all the way to
/// the LLC, mirroring how the paper's hardware tags each LLC request with
/// the identity of its source render cache.
///
/// An access is one packed `u64` — `addr << 5 | write << 4 | stream code`
/// — so a resident trace costs 8 bytes per access. Addresses must be below
/// [`Access::ADDR_LIMIT`] (2^59); synthesized and imported addresses stay
/// below 2^46.
///
/// # Example
///
/// ```
/// use grtrace::{Access, StreamId};
///
/// let a = Access::store(0x1040, StreamId::Z);
/// assert!(a.write());
/// assert_eq!(a.addr(), 0x1040);
/// assert_eq!(a.stream(), StreamId::Z);
/// assert_eq!(a.block(), 0x41);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    bits: u64,
}

const _: () = assert!(std::mem::size_of::<Access>() == 8);

impl Access {
    /// Exclusive upper bound on the byte address an access can hold.
    pub const ADDR_LIMIT: u64 = 1 << (64 - ADDR_SHIFT);

    /// Creates an access; `write` is `true` for a store.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is at or above [`Access::ADDR_LIMIT`].
    #[inline]
    pub fn new(addr: u64, stream: StreamId, write: bool) -> Self {
        assert!(addr < Self::ADDR_LIMIT, "address {addr:#x} does not fit an access");
        let bits = addr << ADDR_SHIFT | u64::from(write) << WRITE_SHIFT | stream.index() as u64;
        Access { bits }
    }

    /// Creates a load access.
    ///
    /// # Panics
    ///
    /// As [`Access::new`].
    #[inline]
    pub fn load(addr: u64, stream: StreamId) -> Self {
        Self::new(addr, stream, false)
    }

    /// Creates a store access.
    ///
    /// # Panics
    ///
    /// As [`Access::new`].
    #[inline]
    pub fn store(addr: u64, stream: StreamId) -> Self {
        Self::new(addr, stream, true)
    }

    /// Byte address of the access.
    #[inline]
    pub fn addr(&self) -> u64 {
        self.bits >> ADDR_SHIFT
    }

    /// Graphics stream the access belongs to.
    #[inline]
    pub fn stream(&self) -> StreamId {
        STREAMS[(self.bits & STREAM_MASK) as usize]
    }

    /// `true` for a store, `false` for a load.
    #[inline]
    pub fn write(&self) -> bool {
        self.bits >> WRITE_SHIFT & 1 != 0
    }

    /// The stream's code, [`StreamId::index`] (the byte the GRTR format
    /// stores).
    #[inline]
    pub(crate) fn stream_code(&self) -> u8 {
        (self.bits & STREAM_MASK) as u8
    }

    /// Cache-block address of the access.
    #[inline]
    pub fn block(&self) -> u64 {
        self.bits >> (ADDR_SHIFT + BLOCK_SHIFT)
    }
}

impl std::fmt::Debug for Access {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Access")
            .field("addr", &self.addr())
            .field("stream", &self.stream())
            .field("write", &self.write())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_and_store_constructors() {
        let l = Access::load(100, StreamId::Texture);
        assert!(!l.write());
        assert_eq!(l.stream(), StreamId::Texture);
        let s = Access::store(100, StreamId::RenderTarget);
        assert!(s.write());
    }

    #[test]
    fn block_strips_offset_bits() {
        assert_eq!(Access::load(0x7f, StreamId::Z).block(), 1);
        assert_eq!(Access::load(0x80, StreamId::Z).block(), 2);
    }

    /// Every stream, direction and boundary address packs and unpacks
    /// exactly.
    #[test]
    fn fields_round_trip() {
        for addr in [0, 1, 63, 64, 1 << 46, Access::ADDR_LIMIT - 1] {
            for stream in StreamId::ALL {
                for write in [false, true] {
                    let a = Access::new(addr, stream, write);
                    assert_eq!((a.addr(), a.stream(), a.write()), (addr, stream, write));
                    assert_eq!(a.block(), crate::block_addr(addr));
                }
            }
        }
        assert_eq!(Access::ADDR_LIMIT, 1 << 59);
    }

    #[test]
    #[should_panic(expected = "does not fit an access")]
    fn address_past_the_limit_panics() {
        let _ = Access::load(Access::ADDR_LIMIT, StreamId::Other);
    }

    #[test]
    fn debug_names_the_fields() {
        let s = format!("{:?}", Access::store(0x40, StreamId::Z));
        assert_eq!(s, "Access { addr: 64, stream: Z, write: true }");
    }
}

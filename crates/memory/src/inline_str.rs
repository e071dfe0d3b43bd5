//! Fixed-capacity inline strings for tabular objects.
//!
//! The paper requires that variable-sized data is never stored in-place in a
//! memory block (§3.1) and that strings referenced by tabular classes share
//! the lifetime of their object (§2). We satisfy both at once by inlining
//! strings at a per-column maximum width: the bytes live inside the object's
//! slot, die with the object, and keep every slot the same size.
//!
//! TPC-H column widths are all statically known, so this loses nothing for
//! the paper's workload. [`InlineStr::new`] truncates what does not fit;
//! the in-place writer ([`InlineStr::push_str`], [`fmt::Write`]) refuses
//! it instead, so a value built piece by piece is never clipped silently.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A UTF-8 string stored inline in at most `N` bytes plus a 2-byte length.
///
/// ```
/// use smc_memory::InlineStr;
///
/// let name: InlineStr<16> = "Adam".into();
/// assert_eq!(name.as_str(), "Adam");
/// // Oversized input truncates at the last UTF-8 boundary that fits.
/// let clipped = InlineStr::<3>::new("héllo");
/// assert_eq!(clipped.as_str(), "hé");
/// // The in-place writer appends whole pieces or refuses them.
/// let mut key = InlineStr::<12>::empty();
/// assert!(key.push_str("Clerk#"));
/// assert!(!key.push_str("0000000001"));
/// assert_eq!(key.as_str(), "Clerk#");
/// ```
#[derive(Clone, Copy)]
pub struct InlineStr<const N: usize> {
    len: u16,
    bytes: [u8; N],
}

impl<const N: usize> InlineStr<N> {
    /// The empty string.
    pub const fn empty() -> Self {
        const { assert!(N <= u16::MAX as usize, "an InlineStr's length is a u16") };
        InlineStr {
            len: 0,
            bytes: [0; N],
        }
    }

    /// Appends `s` whole and returns `true`, or returns `false` and leaves
    /// the string as it was when `s` does not fit: never a clipped tail.
    #[inline]
    pub fn push_str(&mut self, s: &str) -> bool {
        let start = self.len as usize;
        let Some(dst) = self.bytes.get_mut(start..start + s.len()) else {
            return false;
        };
        dst.copy_from_slice(s.as_bytes());
        // `start + s.len() <= N <= u16::MAX` (checked in `empty`/`new`).
        self.len = (start + s.len()) as u16;
        true
    }

    /// Builds from `s`, truncating at the last UTF-8 boundary that fits.
    pub fn new(s: &str) -> Self {
        const { assert!(N <= u16::MAX as usize, "an InlineStr's length is a u16") };
        let mut end = s.len().min(N);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut bytes = [0u8; N];
        bytes[..end].copy_from_slice(&s.as_bytes()[..end]);
        InlineStr {
            len: end as u16,
            bytes,
        }
    }

    /// View as `&str`.
    #[inline]
    pub fn as_str(&self) -> &str {
        // SAFETY: `new` stores a prefix of valid UTF-8 cut at a char
        // boundary, and `push_str` appends whole `&str`s to valid UTF-8.
        unsafe { std::str::from_utf8_unchecked(&self.bytes[..self.len as usize]) }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity in bytes.
    #[inline]
    pub const fn capacity() -> usize {
        N
    }

    /// Whether `s` would fit without truncation.
    pub fn fits(s: &str) -> bool {
        s.len() <= N
    }
}

impl<const N: usize> Default for InlineStr<N> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<const N: usize> fmt::Debug for InlineStr<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl<const N: usize> fmt::Display for InlineStr<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `write!` into the string in place. A piece that does not fit is an
/// `Err`, and the pieces before it stay written.
impl<const N: usize> fmt::Write for InlineStr<N> {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.push_str(s) {
            Ok(())
        } else {
            Err(fmt::Error)
        }
    }
}

impl<const N: usize> PartialEq for InlineStr<N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl<const N: usize> Eq for InlineStr<N> {}

impl<const N: usize> PartialEq<str> for InlineStr<N> {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl<const N: usize> PartialEq<&str> for InlineStr<N> {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl<const N: usize> PartialOrd for InlineStr<N> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> Ord for InlineStr<N> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl<const N: usize> Hash for InlineStr<N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl<const N: usize> Borrow<str> for InlineStr<N> {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl<const N: usize> From<&str> for InlineStr<N> {
    fn from(s: &str) -> Self {
        InlineStr::new(s)
    }
}

impl<const N: usize> AsRef<str> for InlineStr<N> {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_round_trip() {
        let s: InlineStr<16> = InlineStr::new("hello");
        assert_eq!(s.as_str(), "hello");
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(s, "hello");
        assert_eq!(InlineStr::<16>::capacity(), 16);
    }

    #[test]
    fn empty_and_default() {
        let e = InlineStr::<8>::empty();
        assert!(e.is_empty());
        assert_eq!(e, InlineStr::<8>::default());
        assert_eq!(e.as_str(), "");
    }

    #[test]
    fn truncates_at_capacity() {
        let s: InlineStr<4> = InlineStr::new("abcdef");
        assert_eq!(s.as_str(), "abcd");
        assert!(!InlineStr::<4>::fits("abcdef"));
        assert!(InlineStr::<4>::fits("abcd"));
    }

    #[test]
    fn truncates_at_char_boundary() {
        // 'é' is two bytes; cutting mid-char must back off.
        let s: InlineStr<3> = InlineStr::new("aéb");
        assert_eq!(s.as_str(), "aé");
        let s2: InlineStr<2> = InlineStr::new("éé");
        assert_eq!(s2.as_str(), "é");
    }

    #[test]
    fn the_writer_appends_whole_pieces_or_refuses_them() {
        use std::fmt::Write;
        let mut s = InlineStr::<8>::empty();
        assert!(s.push_str("ab") && s.push_str("é"));
        assert!(!s.push_str("cdefg"), "4 + 5 bytes overflow 8");
        assert_eq!(s.as_str(), "abé");
        assert!(s.push_str("cdef"));
        assert!(!s.push_str("x") && !s.push_str("é"));
        assert!(s.push_str(""));
        assert_eq!((s.as_str(), s.len()), ("abécdef", 8));
        // Byte-identical to `new` of the same text: the tail stays zeroed.
        let mut w = InlineStr::<16>::empty();
        write!(w, "Clerk#{:09}", 42).unwrap();
        assert_eq!(w.as_str(), "Clerk#000000042");
        assert_eq!(w.bytes, InlineStr::<16>::new("Clerk#000000042").bytes);
        assert!(w.write_str("ab").is_err());
        assert_eq!(
            w.as_str(),
            "Clerk#000000042",
            "the refused piece left no trace"
        );
    }

    #[test]
    fn ordering_matches_str() {
        let a: InlineStr<8> = InlineStr::new("apple");
        let b: InlineStr<8> = InlineStr::new("banana");
        assert!(a < b);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn usable_as_hashmap_key_via_borrow_str() {
        let mut m = std::collections::HashMap::new();
        m.insert(InlineStr::<8>::new("key"), 1);
        assert_eq!(m.get("key"), Some(&1));
    }

    #[test]
    fn never_panics_and_preserves_prefix() {
        // Seeded sweep over strings of 0..=40 chars drawn from a pool that
        // mixes 1-, 2-, 3-, and 4-byte UTF-8 sequences, so truncation lands
        // on every kind of char boundary.
        const POOL: &[char] = &[
            'a',
            'Z',
            '0',
            ' ',
            'é',
            'ß',
            '\u{3042}',
            '\u{4e2d}',
            '🦀',
            '\u{10348}',
        ];
        let mut rng = smc_util::Pcg32::seed_from_u64(0xD1CE);
        for _ in 0..2000 {
            let n = rng.gen_range(0..=40usize);
            let s: String = (0..n).map(|_| POOL[rng.gen_range(0..POOL.len())]).collect();
            let inl: InlineStr<25> = InlineStr::new(&s);
            assert!(inl.len() <= 25);
            assert!(s.starts_with(inl.as_str()), "{s:?} vs {:?}", inl.as_str());
            if s.len() <= 25 {
                assert_eq!(inl.as_str(), s.as_str());
            }
        }
    }
}

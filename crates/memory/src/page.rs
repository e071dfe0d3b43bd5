//! The page — the one unit both halves of the second tier write: a spilled
//! block ([`crate::spill`]) and a run of snapshotted objects (`smc-persist`)
//! are the same bytes, and this is the only module that knows them.
//!
//! ```text
//! [magic "SMCPERS2"][id][count][obj_size]  count × obj_size object bytes  [checksum64]
//! ```
//!
//! Four little-endian `u64` header words ([`PAGE_HEADER`] bytes), the objects
//! packed back to back, then the [`checksum64`] of every byte before it. `id`
//! is whatever names the page to its container — the source block's id in a
//! spill store, the page's index in a snapshot page file.
//!
//! A page deliberately holds nothing per object but the object: identity
//! lives in the indirection entry (§3.2) and, while a block is spilled, in
//! the context's in-memory page directory, which lists the entry of record
//! *i* at position *i*. A snapshot needs no identity at all — recovery mints
//! fresh entries.
//!
//! The layout is versioned by `smc-persist`'s manifest schema line (the
//! magic only tells a page from noise). A spill store needs no version: its
//! pages die with the process that wrote them.

/// Magic word opening every page.
pub const PAGE_MAGIC: u64 = u64::from_le_bytes(*b"SMCPERS2");
/// Bytes before the first object: magic, id, object count, object size.
pub const PAGE_HEADER: usize = 32;
/// Bytes after the last object: the checksum.
const PAGE_TRAILER: usize = 8;

const PRIME_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME_4: u64 = 0x85eb_ca77_c2b2_ae63;

/// One accumulator step. A bijection of `acc` for a fixed `word` and of
/// `word` for a fixed `acc`: add, rotate and multiply-by-odd all invert.
#[inline(always)]
fn mix(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

/// Folds one word into the merged sum (same bijection property as [`mix`]).
#[inline(always)]
fn fold(sum: u64, word: u64) -> u64 {
    (sum ^ mix(0, word))
        .rotate_left(27)
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

/// The integrity checksum of a page, and of each object in the snapshot
/// manifest's digest: four independent 64-bit multiply-rotate lanes over
/// 32-byte stripes of little-endian words (the xxHash64 shape), merged, then
/// the length, the remaining words, a zero-padded tail and a final
/// avalanche.
///
/// Every step is a bijection of the state it updates, so two inputs of one
/// length that differ only inside a single 8-byte word *always* sum
/// differently. It is an integrity check against torn and rotted pages, not
/// a MAC: nothing here resists an adversary. Words are read with
/// `from_le_bytes`, so the sum depends on neither host endianness nor the
/// buffer's alignment — it is part of the on-disk format.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("an 8-byte chunk"));
    let mut lanes = [
        PRIME_1.wrapping_add(PRIME_2),
        PRIME_2,
        0,
        PRIME_1.wrapping_neg(),
    ];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        lanes[0] = mix(lanes[0], word(&stripe[0..8]));
        lanes[1] = mix(lanes[1], word(&stripe[8..16]));
        lanes[2] = mix(lanes[2], word(&stripe[16..24]));
        lanes[3] = mix(lanes[3], word(&stripe[24..32]));
    }
    let mut sum = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18))
        .wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        sum = fold(sum, word(w));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        sum = fold(sum, u64::from_le_bytes(last));
    }
    sum ^= sum >> 33;
    sum = sum.wrapping_mul(PRIME_2);
    sum ^= sum >> 29;
    sum = sum.wrapping_mul(PRIME_3);
    sum ^ (sum >> 32)
}

/// Why a page was refused. The spill tier maps every variant to
/// [`MemError::SpillFault`](crate::error::MemError::SpillFault), recovery to
/// the `PersistError` that names the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageError {
    /// Fewer bytes than a header, or not the length the header gives.
    Truncated,
    /// The first word is not [`PAGE_MAGIC`].
    BadMagic,
    /// The header carries another id than the one asked for.
    BadId,
    /// The header carries another object size than the one asked for.
    BadObjSize,
    /// The bytes do not sum to the trailer.
    Checksum,
}

/// Writes pages in place: header, objects appended one at a time, then the
/// [`checksum64`] of everything before it. The buffer is sized once for
/// `max_records` and written by offset, so a buffer reused across pages is
/// neither cleared nor regrown.
#[derive(Debug)]
pub struct PageWriter<'b> {
    buf: &'b mut Vec<u8>,
    obj_size: usize,
    records: usize,
}

impl<'b> PageWriter<'b> {
    /// Opens page `id` in `buf`, grown (never shrunk) to hold `max_records`
    /// objects of `obj_size` bytes.
    pub fn begin(
        buf: &'b mut Vec<u8>,
        id: u64,
        obj_size: usize,
        max_records: usize,
    ) -> PageWriter<'b> {
        let full = PAGE_HEADER + max_records * obj_size + PAGE_TRAILER;
        if buf.len() < full {
            buf.resize(full, 0);
        }
        buf[0..8].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
        buf[24..32].copy_from_slice(&(obj_size as u64).to_le_bytes());
        let mut page = PageWriter {
            buf,
            obj_size,
            records: 0,
        };
        page.reopen(id);
        page
    }

    /// Starts over, empty, on page `id` — for a caller that writes a run of
    /// pages of one object size through one buffer.
    pub fn reopen(&mut self, id: u64) {
        self.buf[8..16].copy_from_slice(&id.to_le_bytes());
        self.records = 0;
    }

    /// Objects appended since the page was opened.
    pub fn records(&self) -> usize {
        self.records
    }

    fn body_end(&self) -> usize {
        PAGE_HEADER + self.records * self.obj_size
    }

    /// Appends one object, copying it straight from where it lives.
    ///
    /// # Safety
    /// `obj` must be readable for `obj_size` bytes.
    pub unsafe fn push(&mut self, obj: *const u8) {
        let at = self.body_end();
        let record = &mut self.buf[at..at + self.obj_size];
        // A raw copy, not a `&[u8]` over the source: a spilled slot is
        // another thread's to write in place until its burial ripens.
        std::ptr::copy_nonoverlapping(obj, record.as_mut_ptr(), self.obj_size);
        self.records += 1;
    }

    /// Seals the page — object count, checksum — and returns its bytes.
    pub fn finish(&mut self) -> &[u8] {
        let end = self.body_end();
        self.buf[16..24].copy_from_slice(&(self.records as u64).to_le_bytes());
        let sum = checksum64(&self.buf[..end]);
        self.buf[end..end + PAGE_TRAILER].copy_from_slice(&sum.to_le_bytes());
        &self.buf[..end + PAGE_TRAILER]
    }
}

/// The header words of a page after its magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageHeader {
    /// What names the page to its container.
    pub id: u64,
    /// Objects the page claims to hold.
    pub count: u64,
    /// Bytes per object.
    pub obj_size: u64,
}

impl PageHeader {
    /// Reads the header that opens `bytes` — all a streaming reader has in
    /// hand before it knows how much more to read.
    pub fn read(bytes: &[u8]) -> Result<PageHeader, PageError> {
        let header = bytes.get(..PAGE_HEADER).ok_or(PageError::Truncated)?;
        let word =
            |i: usize| u64::from_le_bytes(header[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        if word(0) != PAGE_MAGIC {
            return Err(PageError::BadMagic);
        }
        Ok(PageHeader {
            id: word(1),
            count: word(2),
            obj_size: word(3),
        })
    }

    /// Length of the whole page, header to trailer; `None` when the claimed
    /// count is no length at all. Unverified until [`decode`] has summed the
    /// page: bound it against the container before allocating for it.
    pub fn page_len(&self) -> Option<usize> {
        let body = self.count.checked_mul(self.obj_size)?;
        usize::try_from(body)
            .ok()?
            .checked_add(PAGE_HEADER + PAGE_TRAILER)
    }
}

/// Verifies one page and returns its objects, in page order, borrowed from
/// `bytes`. The header is checked first — its count fixes the page's length,
/// so a truncated page is caught whatever its last eight bytes hold — then
/// the checksum over the whole body. Any failure is an error, never a
/// partial page.
pub fn decode(
    bytes: &[u8],
    expect_id: u64,
    expect_obj_size: u64,
) -> Result<impl ExactSizeIterator<Item = &[u8]>, PageError> {
    let header = PageHeader::read(bytes)?;
    if header.id != expect_id {
        return Err(PageError::BadId);
    }
    if header.obj_size != expect_obj_size {
        return Err(PageError::BadObjSize);
    }
    if header.page_len() != Some(bytes.len()) {
        return Err(PageError::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - PAGE_TRAILER);
    if trailer != checksum64(body).to_le_bytes() {
        return Err(PageError::Checksum);
    }
    let (objects, size) = (&body[PAGE_HEADER..], header.obj_size as usize);
    Ok((0..header.count as usize).map(move |i| &objects[i * size..(i + 1) * size]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned input: byte `i` of every vector below.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// [`checksum64`]'s definition restated the slow way — one lane array
    /// indexed by word number, words assembled byte by byte — so the kernel's
    /// striping, tail handling and word order are checked against something
    /// that shares none of them.
    fn checksum64_reference(bytes: &[u8]) -> u64 {
        let le = |b: &[u8]| b.iter().rev().fold(0u64, |w, &x| w << 8 | x as u64);
        let step = |acc: u64, w: u64| {
            (acc.wrapping_add(w.wrapping_mul(PRIME_2)).rotate_left(31)).wrapping_mul(PRIME_1)
        };
        let mut lanes = [PRIME_1.wrapping_add(PRIME_2), PRIME_2, 0, !PRIME_1 + 1];
        let striped = bytes.len() / 32 * 32;
        for (i, w) in bytes[..striped].chunks(8).enumerate() {
            lanes[i % 4] = step(lanes[i % 4], le(w));
        }
        let merged = [1, 7, 12, 18]
            .iter()
            .zip(lanes)
            .map(|(&r, l)| l.rotate_left(r));
        let mut sum = merged.fold(bytes.len() as u64, u64::wrapping_add);
        for w in bytes[striped..].chunks(8) {
            sum = ((sum ^ step(0, le(w))).rotate_left(27).wrapping_mul(PRIME_1))
                .wrapping_add(PRIME_4);
        }
        for (shift, prime) in [(33, PRIME_2), (29, PRIME_3)] {
            sum = (sum ^ (sum >> shift)).wrapping_mul(prime);
        }
        sum ^ (sum >> 32)
    }

    #[test]
    fn checksum64_matches_pinned_vectors() {
        // The on-disk definition: a change to any of these is a format
        // change (new page magic, new manifest schema), not a refactor.
        let pinned: [(usize, u64); 10] = [
            (0, 0x9090_306c_6e91_ed59),
            (1, 0x3ee0_2232_1272_3452),
            (7, 0x3cf6_9c5a_2d78_1173),
            (8, 0x1f94_49bb_972a_c643),
            (31, 0x035a_dbd9_354c_273b),
            (32, 0x4b87_2b68_b7e1_a9b6),
            (33, 0xc56d_7a60_484b_82c7),
            (63, 0xdbb5_168b_664d_0103),
            (64, 0x1ef5_10aa_5654_f182),
            (56 * 1024, 0xc117_2555_4e17_2721),
        ];
        for (len, want) in pinned {
            let got = checksum64(&pattern(len));
            assert_eq!(got, want, "length {len}: {got:#018x}");
        }
    }

    #[test]
    fn checksum64_agrees_with_the_reference_at_every_length_and_alignment() {
        let lengths = if cfg!(miri) { 0..=72 } else { 0..=200 };
        let mut buf = vec![0u8; 208];
        for len in lengths {
            let data = pattern(len);
            let want = checksum64_reference(&data);
            for start in 0..8 {
                buf[start..start + len].copy_from_slice(&data);
                assert_eq!(
                    checksum64(&buf[start..start + len]),
                    want,
                    "length {len} at alignment {start}"
                );
            }
        }
    }

    #[test]
    fn checksum64_catches_every_bit_flip_and_every_word_swap() {
        // Every step of the kernel is a bijection of the lane it updates, so
        // a change confined to one word cannot cancel: all 32 768 single-bit
        // flips of a 4 KiB page are caught, not merely most.
        let mut page = pattern(if cfg!(miri) { 96 } else { 4096 });
        let clean = checksum64(&page);
        for bit in 0..page.len() * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&page), clean, "bit {bit} flipped unseen");
            page[bit / 8] ^= 1 << (bit % 8);
        }
        // Lane and position sensitivity: exchanging two words — same lane,
        // different lanes, stripe against tail — is no multiset-preserving
        // no-op. 35 words: four whole stripes and three tail words.
        let words: Vec<u64> = (0..35u64).map(|i| i.wrapping_mul(PRIME_3) | 1).collect();
        let bytes = |w: &[u64]| w.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        let clean = checksum64(&bytes(&words));
        for a in 0..words.len() {
            for b in a + 1..words.len() {
                let mut swapped = words.clone();
                swapped.swap(a, b);
                assert_ne!(checksum64(&bytes(&swapped)), clean, "words {a} and {b}");
            }
        }
    }

    /// A page over already-gathered objects, through the writer both tiers
    /// use.
    fn encode_page(id: u64, obj_size: usize, objs: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut page = PageWriter::begin(&mut buf, id, obj_size, objs.len() / obj_size);
        for obj in objs.chunks(obj_size) {
            unsafe { page.push(obj.as_ptr()) };
        }
        page.finish().to_vec()
    }

    #[test]
    fn page_roundtrip() {
        let objs: Vec<u8> = (0..32u8).collect();
        let page = encode_page(42, 8, &objs);
        assert_eq!(page.len(), 32 + 4 * 8 + 8, "header, objects, trailer");
        let records: Vec<_> = decode(&page, 42, 8).unwrap().collect();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0], &objs[0..8]);
        assert_eq!(records[2], &objs[16..24]);
        assert_eq!(records[3], &objs[24..32]);
    }

    #[test]
    fn page_writer_reuses_a_longer_buffer_without_leaking_it_into_the_page() {
        // The spill path's buffer is never cleared: a short page written
        // after a long one must seal and verify as exactly its own bytes.
        let mut buf = Vec::new();
        let long = {
            let mut page = PageWriter::begin(&mut buf, 1, 8, 6);
            for i in 0..6u64 {
                unsafe { page.push(i.to_le_bytes().as_ptr()) };
            }
            page.finish().len()
        };
        let mut page = PageWriter::begin(&mut buf, 2, 8, 6);
        unsafe { page.push(77u64.to_le_bytes().as_ptr()) };
        let short = page.finish();
        assert!(short.len() < long);
        let records: Vec<_> = decode(short, 2, 8).unwrap().collect();
        assert_eq!(records, [&77u64.to_le_bytes()[..]]);
    }

    #[test]
    fn page_decode_fails_closed() {
        let objs = vec![7u8; 16];
        let good = encode_page(5, 8, &objs);
        // Truncation at every prefix length must error, never panic.
        for cut in 0..good.len() {
            assert!(decode(&good[..cut], 5, 8).is_err(), "cut at {cut}");
        }
        // Single-byte corruption anywhere must be caught by the checksum
        // (or by a failed field check — either way, an error).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert!(decode(&bad, 5, 8).is_err(), "corrupt byte {i}");
        }
        // Mismatched expectations are named errors.
        assert_eq!(decode(&good, 6, 8).err(), Some(PageError::BadId));
        assert_eq!(decode(&good, 5, 16).err(), Some(PageError::BadObjSize));
        assert!(decode(&good, 5, 8).is_ok());
    }

    #[test]
    fn page_layout_is_pinned_byte_for_byte() {
        // The snapshot page of `smc-snapshot/v2`, assembled by hand: four
        // little-endian words, the objects, the sum of all of it. A change
        // here is a format change (`smc-persist` holds the same bytes
        // against the first page of a real page file).
        let objs: [[u64; 2]; 3] = [[1, 10], [2, 20], [3, 30]];
        let golden = |id: u64| {
            let mut want = b"SMCPERS2".to_vec();
            for word in [id, 3, 16].iter().chain(objs.iter().flatten()) {
                want.extend_from_slice(&word.to_le_bytes());
            }
            want.extend_from_slice(&checksum64(&want).to_le_bytes());
            assert_eq!(want.len(), PAGE_HEADER + 3 * 16 + 8);
            want
        };
        let mut buf = Vec::new();
        let mut page = PageWriter::begin(&mut buf, 7, 16, 3);
        // One writer, a run of pages: reopening restamps the id, nothing else.
        for id in [7, 8] {
            for obj in &objs {
                unsafe { page.push(obj.as_ptr().cast()) };
            }
            assert_eq!(page.finish(), golden(id));
            page.reopen(id + 1);
        }
    }

    #[test]
    fn zero_sized_objects_keep_their_count() {
        // Nothing in the body, so the count is the only thing a reader has.
        let mut buf = Vec::new();
        let mut page = PageWriter::begin(&mut buf, 1, 0, 5);
        for _ in 0..5 {
            unsafe { page.push(std::ptr::NonNull::dangling().as_ptr()) };
        }
        let sealed = page.finish();
        assert_eq!(sealed.len(), PAGE_HEADER + 8);
        assert_eq!(decode(sealed, 1, 0).unwrap().len(), 5);
    }
}

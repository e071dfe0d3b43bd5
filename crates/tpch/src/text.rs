//! TPC-H text pools: the fixed value lists of the specification, a small
//! grammar for comment strings, and the width of every text column.
//!
//! Text is written in place: each function returns an [`InlineStr`] of its
//! column's width, built with no heap allocation. A value that does not fit
//! its column panics rather than clip, so every backend loads the same
//! text; the pool-built columns fit by construction (asserted at compile
//! time below).

use std::fmt::{self, Write};

use smc_memory::InlineStr;
use smc_util::rng::Pcg32 as StdRng;

/// `R_NAME`.
pub type RegionName = InlineStr<16>;
/// `N_NAME`.
pub type NationName = InlineStr<20>;
/// `S_NAME` and `C_NAME`: `Supplier#` or `Customer#` and nine digits.
pub type KeyName = InlineStr<20>;
/// `S_ADDRESS` and `C_ADDRESS`.
pub type Address = InlineStr<20>;
/// `S_PHONE` and `C_PHONE`.
pub type Phone = InlineStr<16>;
/// `P_NAME`.
pub type PartName = InlineStr<56>;
/// `P_MFGR`.
pub type Mfgr = InlineStr<16>;
/// `P_BRAND`.
pub type Brand = InlineStr<10>;
/// `P_TYPE`.
pub type PartType = InlineStr<25>;
/// `P_CONTAINER`.
pub type Container = InlineStr<10>;
/// `O_CLERK`.
pub type Clerk = InlineStr<16>;
/// `R_COMMENT`.
pub type RegionComment = InlineStr<80>;
/// `N_COMMENT`.
pub type NationComment = InlineStr<100>;
/// `S_COMMENT`.
pub type SupplierComment = InlineStr<60>;
/// `P_COMMENT`.
pub type PartComment = InlineStr<20>;
/// `PS_COMMENT`.
pub type PartSuppComment = InlineStr<40>;
/// `C_COMMENT`.
pub type CustomerComment = InlineStr<60>;
/// `O_COMMENT`.
pub type OrderComment = InlineStr<48>;
/// `L_COMMENT`.
pub type LineitemComment = InlineStr<27>;

/// `N_NAME`/`N_REGIONKEY` per the TPC-H spec (nation → region index).
pub const NATIONS: &[(&str, usize)] = &[
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

/// `R_NAME` per the spec.
pub const REGIONS: &[&str] = &["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// `C_MKTSEGMENT` values.
pub const SEGMENTS: &[&str] = &[
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

/// `O_ORDERPRIORITY` values.
pub const PRIORITIES: &[&str] = &["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// `L_SHIPINSTRUCT` values.
pub const INSTRUCTIONS: &[&str] = &[
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];

/// `L_SHIPMODE` values.
pub const MODES: &[&str] = &["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// Part name syllables (`P_NAME` is five words from this list).
pub const PART_NAME_WORDS: &[&str] = &[
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cornsilk",
    "cream",
    "cyan",
    "dark",
    "deep",
    "dim",
    "dodger",
    "drab",
    "firebrick",
    "floral",
    "forest",
    "frosted",
    "gainsboro",
    "ghost",
    "goldenrod",
    "green",
    "grey",
    "honeydew",
    "hot",
    "hotpink",
    "indian",
    "ivory",
    "khaki",
    "lace",
    "lavender",
    "lawn",
    "lemon",
    "light",
    "lime",
    "linen",
    "magenta",
    "maroon",
    "medium",
    "metallic",
    "midnight",
    "mint",
    "misty",
    "moccasin",
    "navajo",
    "navy",
    "olive",
    "orange",
    "orchid",
    "pale",
    "papaya",
    "peach",
    "peru",
    "pink",
    "plum",
    "powder",
    "puff",
    "purple",
    "red",
    "rose",
    "rosy",
    "royal",
    "saddle",
    "salmon",
    "sandy",
    "seashell",
    "sienna",
    "sky",
    "slate",
    "smoke",
    "snow",
    "spring",
    "steel",
    "tan",
    "thistle",
    "tomato",
    "turquoise",
    "violet",
    "wheat",
    "white",
    "yellow",
];

/// `P_TYPE` is one word from each of these three lists.
pub const TYPE_SYLLABLE_1: &[&str] = &["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
/// Second type syllable.
pub const TYPE_SYLLABLE_2: &[&str] = &["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
/// Third type syllable (Q2 filters on a `%BRASS` suffix).
pub const TYPE_SYLLABLE_3: &[&str] = &["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

/// `P_CONTAINER` syllables.
pub const CONTAINER_1: &[&str] = &["SM", "LG", "MED", "JUMBO", "WRAP"];
/// Second container syllable.
pub const CONTAINER_2: &[&str] = &["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];

const COMMENT_WORDS: &[&str] = &[
    "the",
    "special",
    "pending",
    "furiously",
    "express",
    "requests",
    "deposits",
    "packages",
    "carefully",
    "quickly",
    "blithely",
    "slyly",
    "regular",
    "final",
    "ironic",
    "even",
    "bold",
    "silent",
    "unusual",
    "accounts",
    "theodolites",
    "platelets",
    "instructions",
    "dependencies",
    "foxes",
    "pinto",
    "beans",
    "warthogs",
    "courts",
    "dolphins",
    "multipliers",
    "sauternes",
    "asymptotes",
    "sleep",
    "wake",
    "cajole",
    "nag",
    "haggle",
    "integrate",
    "boost",
    "detect",
    "along",
    "among",
    "about",
    "above",
    "across",
    "after",
    "against",
];

/// A comment stops growing once it is within this many bytes of its width.
const COMMENT_SLACK: usize = 12;

/// Bytes of the longest word of `pool`.
const fn longest(pool: &[&str]) -> usize {
    let (mut i, mut max) = (0, 0);
    while i < pool.len() {
        if pool[i].len() > max {
            max = pool[i].len();
        }
        i += 1;
    }
    max
}

/// Bytes of the longest text [`words`] can draw from `pools`.
const fn widest(pools: &[&[&str]]) -> usize {
    let (mut i, mut sum) = (0, 0);
    while i < pools.len() {
        sum += longest(pools[i]);
        i += 1;
    }
    sum + pools.len() - 1
}

const PART_NAME: &[&[&str]] = &[PART_NAME_WORDS; 5];
const PART_TYPE: &[&[&str]] = &[TYPE_SYLLABLE_1, TYPE_SYLLABLE_2, TYPE_SYLLABLE_3];
const CONTAINER: &[&[&str]] = &[CONTAINER_1, CONTAINER_2];

// `comment` adds a separator and a word only while the text is at most
// `N - COMMENT_SLACK - 1` bytes long, so with no word longer than the slack
// it always fits in `N`.
const _: () = assert!(longest(COMMENT_WORDS) <= COMMENT_SLACK);
const _: () = assert!(widest(PART_NAME) <= PartName::capacity());
const _: () = assert!(widest(PART_TYPE) <= PartType::capacity());
const _: () = assert!(widest(CONTAINER) <= Container::capacity());

/// Picks one element of a fixed pool.
pub fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

/// Picks one element of a fixed pool by index: a dictionary column's value.
pub(crate) fn pick_index(rng: &mut StdRng, pool: &[&str]) -> u8 {
    rng.gen_range(0..pool.len()) as u8
}

/// Appends `s` to `out`, or panics: a column too narrow for its value is a
/// schema bug, never a reason to clip.
fn put<const N: usize>(out: &mut InlineStr<N>, s: &str) {
    if !out.push_str(s) {
        panic!("{:?} + {s:?} overflows a {N}-byte column", out.as_str());
    }
}

/// `args` written in place into a column `N` bytes wide, or a panic where
/// they would not fit.
pub(crate) fn formatted<const N: usize>(args: fmt::Arguments<'_>) -> InlineStr<N> {
    let mut out = InlineStr::empty();
    if out.write_fmt(args).is_err() {
        panic!("{args} overflows a {N}-byte column");
    }
    out
}

/// `prefix` then `key` zero-padded to nine digits (`S_NAME`, `C_NAME`,
/// `O_CLERK`): what `format!("{prefix}{key:09}")` writes, at a quarter of
/// its cost.
pub(crate) fn key_name<const N: usize>(prefix: &str, key: u64) -> InlineStr<N> {
    let mut digits = [b'0'; 20];
    let (mut i, mut k) = (digits.len(), key);
    while k > 0 {
        i -= 1;
        digits[i] = b'0' + (k % 10) as u8;
        k /= 10;
    }
    let digits = std::str::from_utf8(&digits[i.min(digits.len() - 9)..]).expect("ASCII digits");
    let mut out = InlineStr::empty();
    put(&mut out, prefix);
    put(&mut out, digits);
    out
}

/// One word from each of `pools` in turn, separated by spaces.
fn words<const N: usize>(rng: &mut StdRng, pools: &[&[&str]]) -> InlineStr<N> {
    let mut out = InlineStr::empty();
    for (i, pool) in pools.iter().enumerate() {
        if i > 0 {
            put(&mut out, " ");
        }
        put(&mut out, pick(rng, pool));
    }
    out
}

/// Pseudo-text for a column `N` bytes wide: whole words, added while the
/// text is shorter than `N - 12`, so it ends within 12 bytes of `N` and
/// never passes it (the longest pool word is 12 bytes).
pub fn comment<const N: usize>(rng: &mut StdRng) -> InlineStr<N> {
    let mut out = InlineStr::empty();
    while out.len() < N.saturating_sub(COMMENT_SLACK) {
        if !out.is_empty() {
            put(&mut out, " ");
        }
        put(&mut out, pick(rng, COMMENT_WORDS));
    }
    out
}

/// `P_NAME`: five distinct-ish name words.
pub fn part_name(rng: &mut StdRng) -> PartName {
    words(rng, PART_NAME)
}

/// `P_TYPE`: three syllables.
pub fn part_type(rng: &mut StdRng) -> PartType {
    words(rng, PART_TYPE)
}

/// `P_CONTAINER`: two syllables.
pub fn container(rng: &mut StdRng) -> Container {
    words(rng, CONTAINER)
}

/// Phone number in the spec's `CC-NNN-NNN-NNNN` shape.
pub fn phone(rng: &mut StdRng, nation: usize) -> Phone {
    formatted(format_args!(
        "{}-{}-{}-{}",
        nation + 10,
        rng.gen_range(100..1000),
        rng.gen_range(100..1000),
        rng.gen_range(1000..10000)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_match_spec_sizes() {
        assert_eq!(NATIONS.len(), 25);
        assert_eq!(REGIONS.len(), 5);
        assert_eq!(SEGMENTS.len(), 5);
        assert_eq!(PRIORITIES.len(), 5);
        assert_eq!(MODES.len(), 7);
        assert!(NATIONS.iter().all(|(_, r)| *r < REGIONS.len()));
    }

    #[test]
    fn comment_respects_length_and_is_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let ca = comment::<44>(&mut a);
            assert_eq!(ca, comment::<44>(&mut b));
            assert!((44 - COMMENT_SLACK..=44).contains(&ca.len()), "{ca:?}");
            assert!(!ca.as_str().starts_with(' ') && !ca.as_str().ends_with(' '));
        }
    }

    #[test]
    fn key_name_writes_what_format_writes() {
        for key in [0, 1, 42, 999_999_999, 1_000_000_000, u64::MAX] {
            let name: InlineStr<32> = key_name("Clerk#", key);
            assert_eq!(name.as_str(), format!("Clerk#{key:09}"));
        }
    }

    #[test]
    #[should_panic(expected = "overflows a 4-byte column")]
    fn a_value_wider_than_its_column_panics_rather_than_clip() {
        let _: InlineStr<4> = formatted(format_args!("Clerk#{:09}", 1));
    }

    #[test]
    fn type_strings_cover_brass() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut brass = 0;
        for _ in 0..1000 {
            if part_type(&mut rng).as_str().ends_with("BRASS") {
                brass += 1;
            }
        }
        // 1/5 of types end in BRASS.
        assert!((150..250).contains(&brass), "brass count {brass}");
    }

    #[test]
    fn phone_has_nation_prefix() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = phone(&mut rng, 5);
        assert!(p.as_str().starts_with("15-"));
    }
}

//! The low-level byte codec shared by the envelope and frame layers:
//! little-endian integers, length-prefixed byte strings, and fixed-width
//! hashes — with **typed** decode errors, so a daemon can answer a
//! malformed frame with a protocol error instead of dropping the
//! connection.
//!
//! Every type that rides the wire implements [`Wire`] exactly once. The
//! field types (integers, hashes, strings, options, lists, CIDs, virtual
//! durations) are implemented here; tagged unions and plain structs are
//! generated from one table each by [`wire_enum!`](crate::wire_enum) and
//! [`wire_struct!`](crate::wire_struct), which write the encoder and the
//! decoder from the same list of tags, fields, and `reading` names.

use ofl_ipfs::cid::Cid;
use ofl_netsim::clock::SimDuration;
use ofl_primitives::u256::U256;
use ofl_primitives::{H160, H256};

/// Why a wire payload failed to decode. Every failure names what the
/// decoder was reading, so protocol error frames carry a useful message
/// instead of a bare "malformed".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the named field was complete.
    Truncated {
        /// What was being read when the bytes ran out.
        reading: &'static str,
    },
    /// A declared length exceeds the bytes actually present — the classic
    /// allocation-bomb shape, rejected before any allocation.
    LengthOverflow {
        /// What was being read.
        reading: &'static str,
        /// The declared length.
        declared: u64,
        /// Bytes actually remaining.
        remaining: u64,
    },
    /// A tag byte named no known variant.
    BadTag {
        /// Which tagged union was being read.
        reading: &'static str,
        /// The unrecognized tag.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8 {
        /// Which string field.
        reading: &'static str,
    },
    /// The payload decoded fully but bytes were left over.
    TrailingBytes {
        /// How many bytes remained.
        remaining: u64,
    },
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated { reading } => {
                write!(f, "payload truncated while reading {reading}")
            }
            CodecError::LengthOverflow {
                reading,
                declared,
                remaining,
            } => write!(
                f,
                "length of {reading} declares {declared} bytes but only {remaining} remain"
            ),
            CodecError::BadTag { reading, tag } => {
                write!(f, "unknown tag {tag:#04x} while reading {reading}")
            }
            CodecError::BadUtf8 { reading } => write!(f, "invalid utf-8 in {reading}"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete payload")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only wire writer.
pub struct Writer(pub(crate) Vec<u8>);

impl Writer {
    pub(crate) fn new() -> Writer {
        Writer(Vec::new())
    }
    /// Appends one byte (a tag).
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.0.extend_from_slice(v);
    }
    pub(crate) fn raw(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }
    /// Writes a `u64` length prefix, lets `body` append the bytes it
    /// counts, then backpatches the prefix — a nested payload without an
    /// intermediate buffer.
    pub(crate) fn counted(&mut self, body: impl FnOnce(&mut Writer)) {
        let at = self.0.len();
        self.u64(0);
        body(self);
        let len = (self.0.len() - at - 8) as u64;
        self.0[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

/// A cursor over a wire payload; every read is bounds-checked and failures
/// name the field being read.
pub struct Reader<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, at: 0 }
    }

    pub(crate) fn remaining(&self) -> u64 {
        (self.data.len() - self.at) as u64
    }

    pub(crate) fn take(&mut self, n: usize, reading: &'static str) -> Result<&'a [u8], CodecError> {
        let slice = self
            .data
            .get(
                self.at
                    ..self
                        .at
                        .checked_add(n)
                        .ok_or(CodecError::Truncated { reading })?,
            )
            .ok_or(CodecError::Truncated { reading })?;
        self.at += n;
        Ok(slice)
    }
    /// Reads one byte (a tag).
    pub fn u8(&mut self, reading: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, reading)?[0])
    }
    pub(crate) fn u64(&mut self, reading: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8, reading)?
                .try_into()
                .expect("8-byte slice fits u64"),
        ))
    }
    /// Reads a `u64`-length-prefixed byte string in place.
    pub(crate) fn slice(&mut self, reading: &'static str) -> Result<&'a [u8], CodecError> {
        let len = self.u64(reading)?;
        // Length sanity: never allocate past the remaining input.
        if len > self.remaining() {
            return Err(CodecError::LengthOverflow {
                reading,
                declared: len,
                remaining: self.remaining(),
            });
        }
        self.take(len as usize, reading)
    }
    pub(crate) fn bytes(&mut self, reading: &'static str) -> Result<Vec<u8>, CodecError> {
        Ok(self.slice(reading)?.to_vec())
    }

    /// Declares the payload complete: trailing bytes are an error.
    pub(crate) fn finish(&self) -> Result<(), CodecError> {
        if self.at == self.data.len() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }
}

/// Bounds a declared element count by the bytes that could possibly carry
/// it (each element needs at least one byte on this wire).
pub(crate) fn check_count(
    count: u64,
    reader: &Reader<'_>,
    reading: &'static str,
) -> Result<(), CodecError> {
    if count > reader.remaining() {
        return Err(CodecError::LengthOverflow {
            reading,
            declared: count,
            remaining: reader.remaining(),
        });
    }
    Ok(())
}

/// An empty `Vec` whose *pre-reserved* capacity is bounded, however large
/// the declared element count. `check_count` bounds a count by remaining
/// *bytes*, but elements decode to in-memory sizes many times their wire
/// size — an untrusted peer could otherwise turn a 64 MiB frame into a
/// multi-gigabyte `with_capacity` reservation before the first element
/// fails to parse. Past the cap the vec just grows as elements actually
/// decode.
pub(crate) fn bounded_vec<T>(count: u64) -> Vec<T> {
    const MAX_PREALLOC: u64 = 1024;
    Vec::with_capacity(count.min(MAX_PREALLOC) as usize)
}

/// A value with one canonical wire form: [`Wire::put`] appends it and
/// [`Wire::get`] reads it back, failing with a [`CodecError`] that names
/// what was being read.
pub trait Wire: Sized {
    /// A tagged union's tag bytes in table order (empty for every other
    /// type).
    const TAGS: &'static [u8] = &[];
    /// Appends the wire form.
    fn put(&self, w: &mut Writer);
    /// Reads one value. `reading` names the field in an error; structs and
    /// tagged unions name their own fields and ignore it.
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<Self, CodecError>;
}

/// The wire form of one value.
pub(crate) fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.put(&mut w);
    w.0
}

/// Reads exactly one value from `raw`: trailing bytes are an error.
pub(crate) fn decode<T: Wire>(raw: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(raw);
    let value = T::get(&mut r, "")?;
    r.finish()?;
    Ok(value)
}

/// Asserts that `literals` start with exactly the tags `T`'s table lists:
/// a round-trip test's literals cover every tag and no other.
#[cfg(test)]
pub(crate) fn assert_covers_tags<'a, T: Wire + 'a>(literals: impl IntoIterator<Item = &'a T>) {
    let seen: std::collections::BTreeSet<u8> =
        literals.into_iter().map(|value| encode(value)[0]).collect();
    let listed: std::collections::BTreeSet<u8> = T::TAGS.iter().copied().collect();
    assert_eq!(seen, listed, "{} literals", std::any::type_name::<T>());
}

/// Reads a `u64`-counted list whose count and elements carry different
/// names. The count is untrusted: it is bounded by the bytes left (every
/// element takes at least one) before anything is reserved, and the
/// reservation itself is capped.
pub fn get_list<T: Wire>(
    r: &mut Reader<'_>,
    count: &'static str,
    item: &'static str,
) -> Result<Vec<T>, CodecError> {
    let n = r.u64(count)?;
    check_count(n, r, count)?;
    let mut items = bounded_vec(n);
    for _ in 0..n {
        items.push(T::get(r, item)?);
    }
    Ok(items)
}

impl Wire for u64 {
    fn put(&self, w: &mut Writer) {
        w.u64(*self);
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<u64, CodecError> {
        r.u64(reading)
    }
}

/// A `usize` travels as a `u64`.
impl Wire for usize {
    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<usize, CodecError> {
        Ok(r.u64(reading)? as usize)
    }
}

/// One `0`/`1` byte; any other value is a [`CodecError::BadTag`].
impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        w.u8(*self as u8);
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<bool, CodecError> {
        match r.u8(reading)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { reading, tag }),
        }
    }
}

/// Fixed-width raw bytes (a function selector, a bloom filter).
impl<const N: usize> Wire for [u8; N] {
    fn put(&self, w: &mut Writer) {
        w.raw(self);
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<[u8; N], CodecError> {
        Ok(r.take(N, reading)?.try_into().expect("took N bytes"))
    }
}

impl Wire for H160 {
    fn put(&self, w: &mut Writer) {
        w.raw(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<H160, CodecError> {
        Ok(H160::from_slice(r.take(20, reading)?))
    }
}

impl Wire for H256 {
    fn put(&self, w: &mut Writer) {
        w.raw(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<H256, CodecError> {
        Ok(H256::from_bytes(<[u8; 32]>::get(r, reading)?))
    }
}

/// 32 big-endian bytes.
impl Wire for U256 {
    fn put(&self, w: &mut Writer) {
        w.raw(&self.to_be_bytes());
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<U256, CodecError> {
        Ok(U256::from_be_slice(r.take(32, reading)?))
    }
}

/// A length-prefixed UTF-8 string.
impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.bytes(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<String, CodecError> {
        String::from_utf8(r.bytes(reading)?).map_err(|_| CodecError::BadUtf8 { reading })
    }
}

/// A length-prefixed byte string, copied in one piece rather than read
/// as a list of one-byte elements.
impl Wire for Vec<u8> {
    fn put(&self, w: &mut Writer) {
        w.bytes(self);
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<Vec<u8>, CodecError> {
        r.bytes(reading)
    }
}

/// A `u64`-counted list; count and elements share `reading` (see
/// [`get_list`] for lists that name them apart).
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for item in self {
            item.put(w);
        }
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<Vec<T>, CodecError> {
        get_list(r, reading, reading)
    }
}

/// A `0`/`1` presence byte, then the value when present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            Some(value) => {
                w.u8(1);
                value.put(w);
            }
            None => w.u8(0),
        }
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<Option<T>, CodecError> {
        bool::get(r, reading)?
            .then(|| T::get(r, reading))
            .transpose()
    }
}

/// Nothing on the wire.
impl Wire for () {
    fn put(&self, _: &mut Writer) {}
    fn get(_: &mut Reader<'_>, _: &'static str) -> Result<(), CodecError> {
        Ok(())
    }
}

/// Virtual time travels as whole microseconds.
impl Wire for SimDuration {
    fn put(&self, w: &mut Writer) {
        w.u64(self.as_micros());
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<SimDuration, CodecError> {
        Ok(SimDuration::from_micros(r.u64(reading)?))
    }
}

/// A CID's binary form as a byte string; one that does not parse is a
/// [`CodecError::BadTag`] carrying its first byte.
impl Wire for Cid {
    fn put(&self, w: &mut Writer) {
        w.bytes(&self.to_bytes());
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<Cid, CodecError> {
        let raw = r.slice(reading)?;
        Cid::from_bytes(raw).map_err(|_| CodecError::BadTag {
            reading,
            tag: raw.first().copied().unwrap_or(0),
        })
    }
}

/// Generates [`Wire`] for a tagged union from one table: a `u8` tag per
/// variant, then its fields in order. Each row is
/// `tag => Variant`, `tag => Variant(binding = "reading", ..)` or
/// `tag => Variant { field = "reading", .. }`; the enum itself names the
/// reading of its tag byte. A field's reading defaults to its own name
/// (structs and unions name their inner fields themselves), and a list
/// whose elements read under another name spells it
/// `field = "count reading" ["element reading"]`.
///
/// The encoder is one exhaustive `match`, so a variant the table leaves
/// out does not build, and the decoder denies unreachable patterns, so a
/// tag listed twice does not build either. `TAGS` lists the tags in table
/// order for tests to check coverage against.
///
/// ```
/// use ofl_rpc::codec::Wire;
///
/// enum Shape {
///     Dot,
///     Line { len: u64 },
/// }
/// ofl_rpc::wire_enum! { Shape = "shape tag" {
///     0 => Dot,
///     1 => Line { len = "line length" },
/// }}
/// assert_eq!(Shape::TAGS, &[0, 1]);
/// ```
///
/// The same table without the `Line` row does not build (the encoder's
/// `match` is not exhaustive):
///
/// ```compile_fail,E0004
/// use ofl_rpc::codec::Wire;
///
/// enum Shape {
///     Dot,
///     Line { len: u64 },
/// }
/// ofl_rpc::wire_enum! { Shape = "shape tag" {
///     0 => Dot,
/// }}
/// assert_eq!(Shape::TAGS, &[0]);
/// ```
///
/// Nor does it with `Line` under `Dot`'s tag (the decoder's second arm is
/// unreachable):
///
/// ```compile_fail
/// use ofl_rpc::codec::Wire;
///
/// enum Shape {
///     Dot,
///     Line { len: u64 },
/// }
/// ofl_rpc::wire_enum! { Shape = "shape tag" {
///     0 => Dot,
///     0 => Line { len = "line length" },
/// }}
/// assert_eq!(Shape::TAGS, &[0, 0]);
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($name:ty = $tag_reading:literal {
        $($tag:literal => $variant:ident
            $(( $($tf:ident $(= $tr:literal $([$ti:literal])?)?),* $(,)? ))?
            $({ $($sf:ident $(= $sr:literal $([$si:literal])?)?),* $(,)? })?
        ),* $(,)?
    }) => {
        impl $crate::codec::Wire for $name {
            const TAGS: &'static [u8] = &[$($tag),*];

            fn put(&self, w: &mut $crate::codec::Writer) {
                match self {
                    $(Self::$variant $(( $($tf),* ))? $({ $($sf),* })? => {
                        w.u8($tag);
                        $($($crate::codec::Wire::put($tf, w);)*)?
                        $($($crate::codec::Wire::put($sf, w);)*)?
                    })*
                }
            }

            #[deny(unreachable_patterns)]
            fn get(
                r: &mut $crate::codec::Reader<'_>,
                _: &'static str,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(match r.u8($tag_reading)? {
                    $($tag => Self::$variant
                        $(( $($crate::wire_field!(r, $tf $(= $tr $([$ti])?)?)),* ))?
                        $({ $($sf: $crate::wire_field!(r, $sf $(= $sr $([$si])?)?)),* })?,
                    )*
                    tag => {
                        return Err($crate::codec::CodecError::BadTag {
                            reading: $tag_reading,
                            tag,
                        })
                    }
                })
            }
        }
    };
}

/// Generates [`Wire`] for a plain struct from one table: its fields in
/// wire order, each `field = "reading"` as in [`wire_enum!`](crate::wire_enum).
/// The decoder builds the struct literal, so a field the table leaves out
/// does not build.
#[macro_export]
macro_rules! wire_struct {
    ($name:ty { $($f:ident $(= $reading:literal $([$item:literal])?)?),* $(,)? }) => {
        impl $crate::codec::Wire for $name {
            fn put(&self, w: &mut $crate::codec::Writer) {
                $($crate::codec::Wire::put(&self.$f, w);)*
            }

            fn get(
                r: &mut $crate::codec::Reader<'_>,
                _: &'static str,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(Self {
                    $($f: $crate::wire_field!(r, $f $(= $reading $([$item])?)?)),*
                })
            }
        }
    };
}

/// Reads one table field (an implementation detail of the table macros).
#[doc(hidden)]
#[macro_export]
macro_rules! wire_field {
    ($r:ident, $field:ident) => {
        $crate::codec::Wire::get($r, stringify!($field))?
    };
    ($r:ident, $field:ident = $reading:literal) => {
        $crate::codec::Wire::get($r, $reading)?
    };
    ($r:ident, $field:ident = $count:literal [$item:literal]) => {
        $crate::codec::get_list($r, $count, $item)?
    };
}

//! The framed snapshot document: header, named sections, checksummed
//! footer.

use crate::error::SnapshotError;
use crate::value::{escape_into, Scratch, Value};
use std::io::{Read, Write};

/// The format name every document's header must carry.
pub const FORMAT_NAME: &str = "bc-snapshot";

/// The newest document version this crate writes and understands. Older
/// readers refuse newer documents; the version only moves when the layout
/// itself changes (section shapes are the domain layer's business).
pub const FORMAT_VERSION: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64 hash over `bytes`.
pub(crate) fn fnv_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64-bit, the checksum of the footer (and the fingerprint hash the
/// domain layer uses). Small, dependency-free, and plenty for detecting
/// torn writes — snapshots are not an integrity boundary against attackers.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv_extend(FNV_OFFSET, bytes)
}

fn header_value(fingerprint: &str) -> Value {
    Value::obj(vec![
        ("format", Value::Str(FORMAT_NAME.into())),
        ("version", Value::Int(FORMAT_VERSION as i128)),
        ("fingerprint", Value::Str(fingerprint.into())),
    ])
}

fn footer_value(sections: usize, checksum: u64) -> Value {
    Value::obj(vec![
        ("sections", Value::Int(sections as i128)),
        ("checksum", Value::Str(format!("{checksum:016x}"))),
    ])
}

/// The frozen start of a document: the header line and the leading
/// section lines, byte for byte, with the checksum state after them.
///
/// A caller whose leading sections never change encodes them once
/// ([`SnapshotWriter::freeze`]) or takes them from the document it resumed
/// from ([`Snapshot::parse_with_prefix`]), and starts every later document
/// from them ([`SnapshotWriter::from_prefix`]) instead of re-encoding.
/// The bytes are stored at their exact length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prefix {
    bytes: Box<[u8]>,
    hash: u64,
    sections: usize,
}

impl Prefix {
    /// The header and leading section lines, newlines included.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Streams one snapshot document to a writer, hashing as it goes.
///
/// Mirrors `bc-obs`'s `JsonLinesSink`: one JSON object per line, written
/// eagerly. The footer — and with it a parseable document — only exists
/// once [`SnapshotWriter::finish`] runs; a crash mid-write therefore leaves
/// a document that [`Snapshot::parse`] rejects instead of half-resumes.
pub struct SnapshotWriter<W: Write> {
    inner: W,
    hash: u64,
    bytes: usize,
    sections: usize,
    /// The line being encoded, reused from one line to the next.
    line: String,
}

impl<W: Write> SnapshotWriter<W> {
    /// Starts a document by writing its header line.
    pub fn new(inner: W, fingerprint: &str) -> Result<SnapshotWriter<W>, SnapshotError> {
        let mut w = SnapshotWriter {
            inner,
            hash: FNV_OFFSET,
            bytes: 0,
            sections: 0,
            line: String::new(),
        };
        header_value(fingerprint).write_json(&mut w.line);
        w.write_line()?;
        Ok(w)
    }

    /// Starts a document by writing a frozen prefix: its header and
    /// sections, after which further sections follow. The footer's
    /// checksum still covers every byte before it.
    pub fn from_prefix(mut inner: W, prefix: &Prefix) -> Result<SnapshotWriter<W>, SnapshotError> {
        inner.write_all(&prefix.bytes)?;
        Ok(SnapshotWriter {
            inner,
            hash: prefix.hash,
            bytes: prefix.bytes.len(),
            sections: prefix.sections,
            line: String::new(),
        })
    }

    /// Writes and hashes the encoded line plus its newline.
    fn write_line(&mut self) -> Result<(), SnapshotError> {
        self.line.push('\n');
        self.inner.write_all(self.line.as_bytes())?;
        self.hash = fnv_extend(self.hash, self.line.as_bytes());
        self.bytes += self.line.len();
        self.line.clear();
        Ok(())
    }

    /// Appends one named section.
    pub fn section(&mut self, name: &str, data: &Value) -> Result<(), SnapshotError> {
        // The line is the map {"section": name, "data": data}.
        self.line.push_str("{\"section\":");
        escape_into(name, &mut self.line);
        self.line.push_str(",\"data\":");
        data.write_json(&mut self.line);
        self.line.push('}');
        self.write_line()?;
        self.sections += 1;
        Ok(())
    }

    /// Writes the footer, flushes, and returns the total bytes written.
    pub fn finish(mut self) -> Result<usize, SnapshotError> {
        footer_value(self.sections, self.hash).write_json(&mut self.line);
        self.line.push('\n');
        self.inner.write_all(self.line.as_bytes())?;
        self.inner.flush()?;
        Ok(self.bytes + self.line.len())
    }
}

impl SnapshotWriter<Vec<u8>> {
    /// Freezes everything written so far — header and sections, no footer
    /// — into a [`Prefix`].
    pub fn freeze(self) -> Prefix {
        Prefix {
            bytes: self.inner.into_boxed_slice(),
            hash: self.hash,
            sections: self.sections,
        }
    }
}

/// A parsed snapshot document: the header fingerprint plus its sections,
/// in document order.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    fingerprint: String,
    sections: Vec<(String, Value)>,
}

impl Snapshot {
    /// Builds a document in memory (the write-side counterpart used by
    /// re-serialization tests and by [`Snapshot::write_to`]).
    pub fn new(fingerprint: String, sections: Vec<(String, Value)>) -> Snapshot {
        Snapshot {
            fingerprint,
            sections,
        }
    }

    /// The header's run fingerprint.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// All sections, in document order.
    pub fn sections(&self) -> &[(String, Value)] {
        &self.sections
    }

    /// The named section's payload.
    pub fn section(&self, name: &str) -> Result<&Value, SnapshotError> {
        self.sections
            .iter()
            .find_map(|(k, v)| (k == name).then_some(v))
            .ok_or_else(|| SnapshotError::MissingSection(name.to_string()))
    }

    /// Reads and validates one complete document: header, every section,
    /// and a footer whose section count and checksum match the bytes read.
    pub fn parse(mut reader: impl Read) -> Result<Snapshot, SnapshotError> {
        let mut text = String::new();
        reader.read_to_string(&mut text)?;
        Ok(Snapshot::parse_with_prefix(&text, &[])?.0)
    }

    /// [`Snapshot::parse`] of a document already in memory that also
    /// hands back its frozen [`Prefix`]: the header and the sections named
    /// `leading`, when the document's first sections carry exactly those
    /// names in that order and its header is the one [`SnapshotWriter`]
    /// writes. The prefix is copied out of `text` at its exact size, and
    /// only once every check of the whole document has passed.
    pub fn parse_with_prefix(
        text: &str,
        leading: &[&str],
    ) -> Result<(Snapshot, Option<Prefix>), SnapshotError> {
        let mut fingerprint: Option<String> = None;
        let mut sections: Vec<(String, Value)> = Vec::new();
        let mut footer: Option<(usize, String, u64)> = None; // declared count, checksum, hash-so-far
        let mut hash = FNV_OFFSET;
        let mut canonical_header = false;
        let mut prefix_hash = None;
        let mut scratch = Scratch::default();

        for (idx, line) in text.lines().enumerate() {
            let line_no = idx + 1;
            let malformed = |reason: String| SnapshotError::Malformed {
                line: line_no,
                reason,
            };
            if footer.is_some() {
                return Err(malformed("content after the footer".into()));
            }
            // The footer is not hashed: keep the state from before it.
            let before = hash;
            let mut value =
                Value::parse_with(line, &mut scratch, Some(&mut hash)).map_err(malformed)?;
            if line_no == 1 {
                let format = value
                    .get("format")
                    .and_then(Value::as_str)
                    .ok_or_else(|| malformed("header lacks a format name".into()))?;
                if format != FORMAT_NAME {
                    return Err(SnapshotError::UnsupportedFormat(format.to_string()));
                }
                let version = value
                    .get("version")
                    .and_then(Value::as_int)
                    .filter(|v| *v >= 0)
                    .ok_or_else(|| malformed("header lacks a version".into()))?;
                if u32::try_from(version).map_or(true, |v| v > FORMAT_VERSION) {
                    return Err(SnapshotError::UnsupportedVersion(
                        u64::try_from(version).unwrap_or(u64::MAX),
                    ));
                }
                let fp = value
                    .get("fingerprint")
                    .and_then(Value::as_str)
                    .ok_or_else(|| malformed("header lacks a fingerprint".into()))?;
                canonical_header = line == header_value(fp).to_json();
                fingerprint = Some(fp.to_string());
            } else if let Some(name) = value.get("section").and_then(Value::as_str) {
                let name = name.to_string();
                let data = value
                    .remove("data")
                    .ok_or_else(|| malformed("section line lacks data".into()))?;
                sections.push((name, data));
            } else if let Some(declared) = value.get("sections").and_then(Value::as_usize) {
                let checksum = value
                    .get("checksum")
                    .and_then(Value::as_str)
                    .ok_or_else(|| malformed("footer lacks a checksum".into()))?;
                footer = Some((declared, checksum.to_string(), before));
                continue;
            } else {
                return Err(malformed("neither section nor footer".into()));
            }
            hash = fnv_extend(hash, b"\n");
            if line_no == leading.len() + 1 {
                prefix_hash = Some(hash);
            }
        }

        let fingerprint = fingerprint.ok_or(SnapshotError::Malformed {
            line: 1,
            reason: "empty document".into(),
        })?;
        let (declared, checksum, hashed) = footer.ok_or(SnapshotError::Malformed {
            line: text.lines().count().max(1),
            reason: "no footer — torn write?".into(),
        })?;
        if declared != sections.len() {
            return Err(SnapshotError::SectionCountMismatch {
                declared,
                actual: sections.len(),
            });
        }
        let actual = format!("{hashed:016x}");
        if checksum != actual {
            return Err(SnapshotError::ChecksumMismatch {
                declared: checksum,
                actual,
            });
        }

        let names_match = sections.len() >= leading.len()
            && sections
                .iter()
                .zip(leading)
                .all(|((name, _), want)| name == want);
        let prefix = match prefix_hash {
            Some(hash) if canonical_header && names_match => {
                // `lines()` drops each line's terminator, so the prefix is
                // rebuilt from the hashed bytes: every line plus "\n".
                let lines = || text.lines().take(leading.len() + 1);
                let mut bytes = Vec::with_capacity(lines().map(|l| l.len() + 1).sum());
                for line in lines() {
                    bytes.extend_from_slice(line.as_bytes());
                    bytes.push(b'\n');
                }
                Some(Prefix {
                    bytes: bytes.into_boxed_slice(),
                    hash,
                    sections: leading.len(),
                })
            }
            _ => None,
        };
        Ok((
            Snapshot {
                fingerprint,
                sections,
            },
            prefix,
        ))
    }

    /// Re-serializes the document. For a document produced by
    /// [`SnapshotWriter`], the output is byte-identical to the original
    /// (pinned by test) — parsing is lossless and serialization canonical.
    pub fn write_to(&self, out: impl Write) -> Result<usize, SnapshotError> {
        let mut w = SnapshotWriter::new(out, &self.fingerprint)?;
        for (name, data) in &self.sections {
            w.section(name, data)?;
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bytes() -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = SnapshotWriter::new(&mut buf, "00deadbeef00cafe").unwrap();
        w.section(
            "config",
            &Value::obj(vec![
                ("budget", Value::Int(20)),
                ("alpha", Value::Float(0.01)),
            ]),
        )
        .unwrap();
        w.section(
            "pending",
            &Value::List(vec![Value::obj(vec![("attempts", Value::Int(1))])]),
        )
        .unwrap();
        w.finish().unwrap();
        buf
    }

    #[test]
    fn write_parse_round_trip() {
        let bytes = sample_bytes();
        let snap = Snapshot::parse(&bytes[..]).unwrap();
        assert_eq!(snap.fingerprint(), "00deadbeef00cafe");
        assert_eq!(snap.sections().len(), 2);
        assert_eq!(
            snap.section("config")
                .unwrap()
                .get("budget")
                .unwrap()
                .as_usize(),
            Some(20)
        );
        assert!(matches!(
            snap.section("nope"),
            Err(SnapshotError::MissingSection(_))
        ));
    }

    #[test]
    fn reserialization_is_byte_identical() {
        let bytes = sample_bytes();
        let snap = Snapshot::parse(&bytes[..]).unwrap();
        let mut again = Vec::new();
        let n = snap.write_to(&mut again).unwrap();
        assert_eq!(n, again.len());
        assert_eq!(again, bytes);
    }

    #[test]
    fn torn_writes_are_rejected() {
        let bytes = sample_bytes();
        // Missing footer (the crash-mid-write shape).
        let cut = bytes.len() - 2;
        assert!(matches!(
            Snapshot::parse(&bytes[..cut]),
            Err(SnapshotError::Malformed { .. })
        ));
        // A flipped byte inside a section breaks the checksum (if it even
        // parses).
        let mut corrupt = bytes.clone();
        let i = corrupt.iter().position(|&b| b == b'2').unwrap();
        corrupt[i] = b'3';
        assert!(Snapshot::parse(&corrupt[..]).is_err());
    }

    #[test]
    fn foreign_and_future_documents_are_refused() {
        let other = b"{\"format\":\"other\",\"version\":1,\"fingerprint\":\"x\"}\n";
        assert!(matches!(
            Snapshot::parse(&other[..]),
            Err(SnapshotError::UnsupportedFormat(_))
        ));
        let future = format!(
            "{{\"format\":\"bc-snapshot\",\"version\":{},\"fingerprint\":\"x\"}}\n",
            FORMAT_VERSION + 1
        );
        assert!(matches!(
            Snapshot::parse(future.as_bytes()),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn oversized_versions_are_refused_not_wrapped() {
        let header = |version: &str| {
            format!("{{\"format\":\"bc-snapshot\",\"version\":{version},\"fingerprint\":\"x\"}}\n")
        };
        // 2^32 + 1 wrapped to 1 in a `u32` and was accepted.
        for (version, reported) in [
            ("4294967297", 4_294_967_297),
            ("4294967296", 4_294_967_296),
            ("18446744073709551615", u64::MAX),
            ("1180591620717411303424", u64::MAX),
        ] {
            match Snapshot::parse(header(version).as_bytes()) {
                Err(SnapshotError::UnsupportedVersion(v)) => assert_eq!(v, reported, "{version}"),
                other => panic!("version {version}: {other:?}"),
            }
        }
        assert!(matches!(
            Snapshot::parse(header("-1").as_bytes()),
            Err(SnapshotError::Malformed { line: 1, .. })
        ));
    }

    fn leading() -> [&'static str; 1] {
        ["config"]
    }

    #[test]
    fn a_frozen_prefix_continues_to_the_same_document() {
        let bytes = sample_bytes();
        let snap = Snapshot::parse(&bytes[..]).unwrap();
        let (config, pending) = (
            snap.section("config").unwrap(),
            snap.section("pending").unwrap(),
        );
        let mut w = SnapshotWriter::new(Vec::new(), snap.fingerprint()).unwrap();
        w.section("config", config).unwrap();
        let prefix = w.freeze();
        let two_lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').take(2).collect();
        assert_eq!(prefix.as_bytes(), two_lines.concat());
        for _ in 0..2 {
            let mut out = Vec::new();
            let mut w = SnapshotWriter::from_prefix(&mut out, &prefix).unwrap();
            w.section("pending", pending).unwrap();
            assert_eq!(w.finish().unwrap(), bytes.len());
            assert_eq!(out, bytes);
        }
        // The same prefix comes back from parsing the document.
        let text = std::str::from_utf8(&bytes).unwrap();
        let (parsed, from_doc) = Snapshot::parse_with_prefix(text, &leading()).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(from_doc, Some(prefix));
    }

    #[test]
    fn no_prefix_without_the_leading_sections_in_order() {
        let bytes = sample_bytes();
        let text = std::str::from_utf8(&bytes).unwrap();
        for leading in [
            &["pending"][..],
            &["config", "pending", "extra"],
            &["config", "x"],
        ] {
            let (_, prefix) = Snapshot::parse_with_prefix(text, leading).unwrap();
            assert_eq!(prefix, None, "{leading:?}");
        }
        let (_, prefix) = Snapshot::parse_with_prefix(text, &["config", "pending"]).unwrap();
        assert_eq!(
            prefix.unwrap().as_bytes().len(),
            bytes.len() - text.lines().last().unwrap().len() - 1
        );
        // A header this writer would not write (an older version, a space)
        // yields no prefix, so it is never copied into a new document.
        let snap = Snapshot::parse(&bytes[..]).unwrap();
        let config = snap.section("config").unwrap().to_json();
        for header in [
            "{\"format\":\"bc-snapshot\",\"version\":0,\"fingerprint\":\"00deadbeef00cafe\"}",
            "{\"format\": \"bc-snapshot\",\"version\":1,\"fingerprint\":\"00deadbeef00cafe\"}",
        ] {
            let body = format!("{header}\n{{\"section\":\"config\",\"data\":{config}}}\n");
            let doc = format!(
                "{body}{{\"sections\":1,\"checksum\":\"{:016x}\"}}\n",
                fnv1a64(body.as_bytes())
            );
            let (_, prefix) = Snapshot::parse_with_prefix(&doc, &leading()).unwrap();
            assert_eq!(prefix, None, "{header}");
        }
    }

    #[test]
    fn a_prefix_of_a_crlf_document_continues_to_a_valid_one() {
        // Line terminators are not part of the hashed bytes, so the prefix
        // is rebuilt from the lines, each ending in "\n".
        let bytes = sample_bytes();
        let crlf = String::from_utf8(bytes.clone())
            .unwrap()
            .replace('\n', "\r\n");
        let (snap, prefix) = Snapshot::parse_with_prefix(&crlf, &leading()).unwrap();
        let mut out = Vec::new();
        let mut w = SnapshotWriter::from_prefix(&mut out, &prefix.unwrap()).unwrap();
        w.section("pending", snap.section("pending").unwrap())
            .unwrap();
        w.finish().unwrap();
        assert_eq!(out, bytes);
    }

    #[test]
    fn section_count_must_match() {
        let bytes = sample_bytes();
        let text = String::from_utf8(bytes).unwrap();
        // Drop one section line but keep the (now stale) footer.
        let lines: Vec<&str> = text.lines().collect();
        let tampered = format!("{}\n{}\n{}\n", lines[0], lines[2], lines[3]);
        // Either the checksum or the count catches it — both are wrong.
        assert!(Snapshot::parse(tampered.as_bytes()).is_err());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}

//! Instance and divergence serialization — the fuzz corpus format.
//!
//! Instances are stored as [`bc_snapshot`] documents (checksummed,
//! versioned JSON-lines), fingerprint `bc-oracle/instance@1`, with
//! sections:
//!
//! * `meta` — `{name, seed}`,
//! * `dataset` — per-attribute domain cardinalities plus rows (missing
//!   cells as `null`),
//! * `pmfs` — one `{object, attr, probs}` record per missing cell,
//! * `divergence` (optional, written by [`save_divergence`]) — which
//!   solver diverged on which object, with the numbers involved.
//!
//! A file replays bit-identically on any machine: floats round-trip in
//! shortest form and the document layer checksums the bytes, so a corpus
//! entry either reproduces the original instance exactly or fails loudly.
//! [`load_corpus`] reads every `*.bcsnap` in a directory in name order —
//! the committed seed corpus and the CI artifact path both go through it.

use crate::diff::Divergence;
use crate::gen::Instance;
use bc_bayes::Pmf;
use bc_data::{Dataset, Domain, Value as CellValue, VarId};
use bc_snapshot::{Snapshot, SnapshotError, SnapshotWriter, Value};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Corpus document fingerprint (bump on breaking format change).
pub const INSTANCE_FINGERPRINT: &str = "bc-oracle/instance@1";

fn encode_instance(inst: &Instance) -> Vec<(&'static str, Value)> {
    let cards: Vec<Value> = inst
        .data
        .domains()
        .iter()
        .map(|d| Value::Int(d.cardinality() as i128))
        .collect();
    let rows: Vec<Value> = inst
        .data
        .objects()
        .map(|o| {
            Value::List(
                inst.data
                    .row(o)
                    .iter()
                    .map(|c| match c {
                        Some(v) => Value::Int(*v as i128),
                        None => Value::Null,
                    })
                    .collect(),
            )
        })
        .collect();
    let pmfs: Vec<Value> = inst
        .pmfs
        .iter()
        .map(|(v, pmf)| {
            Value::obj(vec![
                ("object", Value::Int(v.object.0 as i128)),
                ("attr", Value::Int(v.attr.0 as i128)),
                (
                    "probs",
                    Value::List(pmf.probs().iter().map(|&p| Value::Float(p)).collect()),
                ),
            ])
        })
        .collect();
    vec![
        (
            "meta",
            Value::obj(vec![
                ("name", Value::Str(inst.name.clone())),
                ("seed", Value::Int(inst.seed as i128)),
            ]),
        ),
        (
            "dataset",
            Value::obj(vec![
                ("cards", Value::List(cards)),
                ("rows", Value::List(rows)),
            ]),
        ),
        ("pmfs", Value::List(pmfs)),
    ]
}

/// Writes `inst` as a corpus document.
pub fn save_instance(inst: &Instance, out: impl Write) -> Result<(), SnapshotError> {
    let mut w = SnapshotWriter::new(out, INSTANCE_FINGERPRINT)?;
    for (name, value) in encode_instance(inst) {
        w.section(name, &value)?;
    }
    w.finish()?;
    Ok(())
}

/// Writes a divergence as a corpus document: the (minimized) instance plus
/// a `divergence` section describing what failed — the CI repro artifact.
pub fn save_divergence(div: &Divergence, out: impl Write) -> Result<(), SnapshotError> {
    let mut w = SnapshotWriter::new(out, INSTANCE_FINGERPRINT)?;
    for (name, value) in encode_instance(&div.instance) {
        w.section(name, &value)?;
    }
    w.section(
        "divergence",
        &Value::obj(vec![
            ("solver", Value::Str(div.solver.clone())),
            ("object", Value::Int(div.object.0 as i128)),
            ("got", Value::Float(div.got)),
            ("want", Value::Float(div.want)),
            ("tolerance", Value::Float(div.tolerance)),
            ("detail", Value::Str(div.detail.clone())),
        ]),
    )?;
    w.finish()?;
    Ok(())
}

fn invalid(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Invalid(msg.into())
}

/// Reads an instance document back (a `divergence` section, if present, is
/// ignored — the instance alone is what replays).
pub fn load_instance(input: impl Read) -> Result<Instance, SnapshotError> {
    let snap = Snapshot::parse(input)?;
    if snap.fingerprint() != INSTANCE_FINGERPRINT {
        return Err(invalid(format!(
            "fingerprint {:?} is not {INSTANCE_FINGERPRINT:?}",
            snap.fingerprint()
        )));
    }

    let meta = snap.section("meta")?;
    let name = meta
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| invalid("meta.name missing"))?
        .to_string();
    let seed = meta
        .get("seed")
        .and_then(Value::as_u64)
        .ok_or_else(|| invalid("meta.seed missing"))?;

    let dataset = snap.section("dataset")?;
    let cards = dataset
        .get("cards")
        .and_then(Value::as_list)
        .ok_or_else(|| invalid("dataset.cards missing"))?;
    let domains: Vec<Domain> = cards
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let card = c
                .as_u16()
                .ok_or_else(|| invalid(format!("dataset.cards[{i}] not a u16")))?;
            Domain::new(format!("a{i}"), card).map_err(|e| invalid(e.to_string()))
        })
        .collect::<Result<_, _>>()?;
    let rows = dataset
        .get("rows")
        .and_then(Value::as_list)
        .ok_or_else(|| invalid("dataset.rows missing"))?
        .iter()
        .map(|row| {
            row.as_list()
                .ok_or_else(|| invalid("dataset row not a list"))?
                .iter()
                .map(|c| match c {
                    Value::Null => Ok(None),
                    other => other
                        .as_u16()
                        .map(Some)
                        .ok_or_else(|| invalid("cell not a u16 or null")),
                })
                .collect::<Result<Vec<Option<CellValue>>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let data =
        Dataset::from_rows(name.clone(), domains, rows).map_err(|e| invalid(e.to_string()))?;

    let mut pmfs = BTreeMap::new();
    for (i, rec) in snap
        .section("pmfs")?
        .as_list()
        .ok_or_else(|| invalid("pmfs not a list"))?
        .iter()
        .enumerate()
    {
        let object = rec
            .get("object")
            .and_then(Value::as_u64)
            .ok_or_else(|| invalid(format!("pmfs[{i}].object missing")))?;
        let attr = rec
            .get("attr")
            .and_then(Value::as_u16)
            .ok_or_else(|| invalid(format!("pmfs[{i}].attr missing")))?;
        let probs: Vec<f64> = rec
            .get("probs")
            .and_then(Value::as_list)
            .ok_or_else(|| invalid(format!("pmfs[{i}].probs missing")))?
            .iter()
            .map(|p| {
                p.as_f64()
                    .ok_or_else(|| invalid(format!("pmfs[{i}] prob not a float")))
            })
            .collect::<Result<_, _>>()?;
        pmfs.insert(VarId::new(object as u32, attr), Pmf::from_probs(probs));
    }

    let missing = data.missing_vars();
    let keys: Vec<VarId> = pmfs.keys().copied().collect();
    if keys != missing {
        return Err(invalid(format!(
            "pmf keys {keys:?} do not match missing cells {missing:?}"
        )));
    }
    for (v, pmf) in &pmfs {
        let card = data.domain(v.attr).cardinality() as usize;
        if pmf.card() != card {
            return Err(invalid(format!(
                "pmf of {v} has {} entries, domain has {card}",
                pmf.card()
            )));
        }
    }

    Ok(Instance {
        name,
        seed,
        data,
        pmfs,
    })
}

/// Loads every `*.bcsnap` under `dir`, in file-name order. A missing
/// directory is an empty corpus; an unreadable or malformed file is an
/// error (a corrupt corpus entry must fail the run, not silently shrink
/// coverage).
pub fn load_corpus(dir: &Path) -> Result<Vec<(PathBuf, Instance)>, SnapshotError> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .collect::<Result<Vec<_>, _>>()
            .map_err(SnapshotError::Io)?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "bcsnap"))
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(SnapshotError::Io(e)),
    };
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let file = std::fs::File::open(&p).map_err(SnapshotError::Io)?;
            let inst = load_instance(std::io::BufReader::new(file))
                .map_err(|e| invalid(format!("{}: {e}", p.display())))?;
            Ok((p, inst))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_instance, GenConfig};
    use bc_data::ObjectId;

    fn roundtrip(inst: &Instance) -> Instance {
        let mut buf = Vec::new();
        save_instance(inst, &mut buf).unwrap();
        load_instance(buf.as_slice()).unwrap()
    }

    #[test]
    fn instances_roundtrip_exactly() {
        for seed in [0, 7, 99, 1234] {
            let inst = random_instance(seed, &GenConfig::default());
            let back = roundtrip(&inst);
            assert_eq!(back.name, inst.name);
            assert_eq!(back.seed, inst.seed);
            assert_eq!(back.data.complete_rows(), inst.data.complete_rows());
            assert_eq!(back.data.missing_vars(), inst.data.missing_vars());
            for (v, pmf) in &inst.pmfs {
                // Bit-exact float round-trip, not approximate.
                assert_eq!(back.pmfs[v].probs(), pmf.probs());
            }
        }
    }

    #[test]
    fn divergence_docs_replay_as_instances() {
        let inst = random_instance(5, &GenConfig::default());
        let div = Divergence {
            instance: inst.clone(),
            solver: "adpll".into(),
            object: ObjectId(1),
            got: 0.25,
            want: 0.75,
            tolerance: 1e-9,
            detail: "test".into(),
        };
        let mut buf = Vec::new();
        save_divergence(&div, &mut buf).unwrap();
        let back = load_instance(buf.as_slice()).unwrap();
        assert_eq!(back.data.complete_rows(), inst.data.complete_rows());
    }

    #[test]
    fn mismatched_pmfs_are_rejected() {
        let mut inst = random_instance(11, &GenConfig::default());
        // Drop one pmf so keys no longer match missing cells (skip the
        // instance if it happens to have none).
        if let Some(v) = inst.data.missing_vars().first().copied() {
            inst.pmfs.remove(&v);
            let mut buf = Vec::new();
            save_instance(&inst, &mut buf).unwrap();
            let err = load_instance(buf.as_slice()).unwrap_err();
            assert!(matches!(err, SnapshotError::Invalid(_)), "{err}");
        }
    }

    #[test]
    fn corpus_loading_is_ordered_and_total() {
        let dir = std::env::temp_dir().join("bc-oracle-corpus-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for seed in [3u64, 1, 2] {
            let inst = random_instance(seed, &GenConfig::default());
            let file = std::fs::File::create(dir.join(format!("seed-{seed}.bcsnap"))).unwrap();
            save_instance(&inst, file).unwrap();
        }
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let corpus = load_corpus(&dir).unwrap();
        assert_eq!(corpus.len(), 3);
        let seeds: Vec<u64> = corpus.iter().map(|(_, i)| i.seed).collect();
        assert_eq!(seeds, vec![1, 2, 3]);
        assert!(load_corpus(&dir.join("does-not-exist")).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

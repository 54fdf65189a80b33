//! Warm-state snapshot suite: the serialized memo tiers must be a
//! pure accelerant. A flow resumed from a snapshot is bit-identical
//! to a cold flow, the snapshot bytes are canonical (independent of
//! thread count and evaluation order), and every corruption mode is
//! rejected with a typed error that degrades to a cold start —
//! never a panic, never a poisoned engine.

use claire::core::{Claire, ClaireError, ClaireOptions, Engine};
use claire::model::zoo;
use proptest::prelude::*;
use std::path::PathBuf;

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("claire-snap-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn flow_from_snapshot_is_bit_identical_to_cold() {
    let dir = scratch("flow");
    let claire = Claire::new(ClaireOptions::default());
    let training = [zoo::resnet18(), zoo::alexnet()];
    let tests = [zoo::vgg16()];

    let cold = Engine::new(2);
    let cold_train = claire
        .train_with_engine(&training, &cold)
        .expect("cold train");
    let cold_test = claire
        .evaluate_test_with_engine(&cold_train, &tests, &cold)
        .expect("cold test");
    let reference = format!("{cold_train:?}\n{cold_test:?}");

    let path = dir.join("claire.snapshot");
    assert!(cold.save_snapshot(&path).expect("save"), "nothing saved");

    let warm = Engine::new(2);
    assert!(warm.load_snapshot(&path).expect("load"), "nothing loaded");
    let warm_train = claire
        .train_with_engine(&training, &warm)
        .expect("warm train");
    let warm_test = claire
        .evaluate_test_with_engine(&warm_train, &tests, &warm)
        .expect("warm test");
    assert_eq!(
        format!("{warm_train:?}\n{warm_test:?}"),
        reference,
        "flow from snapshot diverged from the cold flow"
    );

    // The warm flow re-derives nothing the snapshot carried: every
    // Louvain clustering and compute sum is a restored-tier hit.
    let stats = warm.stats();
    assert_eq!(stats.louvain_misses, 0, "{stats:?}");
    assert_eq!(stats.sum_misses, 0, "{stats:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_bytes_are_identical_across_thread_counts() {
    let claire = Claire::new(ClaireOptions::default());
    let training = [zoo::resnet18(), zoo::gpt2()];
    let mut snapshots = Vec::new();
    for threads in [1usize, 2, 8] {
        let engine = Engine::new(threads);
        claire.train_with_engine(&training, &engine).expect("train");
        snapshots.push((threads, engine.snapshot_bytes().expect("encode")));
    }
    let (_, reference) = &snapshots[0];
    for (threads, bytes) in &snapshots[1..] {
        assert_eq!(
            bytes, reference,
            "snapshot bytes diverged at {threads} threads"
        );
    }
}

#[test]
fn corruption_is_typed_and_degrades_to_cold_start() {
    let dir = scratch("corrupt");
    let claire = Claire::new(ClaireOptions {
        cache_dir: Some(dir.clone()),
        ..ClaireOptions::default()
    });
    let model = zoo::alexnet();

    let cold = Engine::new(2);
    let reference = claire
        .custom_for_with_engine(&model, &cold)
        .expect("cold custom");
    assert!(claire.save_warm_state(&cold).expect("save"));
    let path = claire.snapshot_path().expect("cache dir set");
    let valid = std::fs::read(&path).expect("snapshot bytes");

    // Every corruption mode: (tag, mutated bytes, detail substring).
    let mut truncated = valid.clone();
    truncated.truncate(17);
    let mut bad_magic = valid.clone();
    bad_magic[0] ^= 0xFF;
    let mut foreign_endian = valid.clone();
    foreign_endian.swap(8, 9); // byte-swapped BOM
    let mut bad_version = valid.clone();
    bad_version[10] = bad_version[10].wrapping_add(1);
    let mut bad_checksum = valid.clone();
    *bad_checksum.last_mut().expect("non-empty") ^= 0x01;
    let cases = [
        ("truncated", truncated, "short"),
        ("magic", bad_magic, "magic"),
        ("endianness", foreign_endian, "endian"),
        ("version", bad_version, "version"),
        ("checksum", bad_checksum, "checksum"),
    ];

    for (tag, bytes, detail) in cases {
        std::fs::write(&path, &bytes).expect("write corrupt");
        let engine = Engine::new(2);
        let err = claire.load_warm_state(&engine).expect_err(tag);
        match &err {
            ClaireError::SnapshotInvalid { detail: d } => {
                assert!(d.contains(detail), "{tag}: unexpected detail {d:?}");
            }
            other => panic!("{tag}: expected SnapshotInvalid, got {other:?}"),
        }
        // The rejected load left the engine untouched: the cold run
        // still works and matches the reference bit for bit.
        let recovered = claire
            .custom_for_with_engine(&model, &engine)
            .unwrap_or_else(|e| panic!("{tag}: engine unusable after rejected load: {e}"));
        assert_eq!(
            format!("{recovered:?}"),
            format!("{reference:?}"),
            "{tag}: cold fallback diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_writers_never_tear_the_snapshot() {
    // Two engines with *different* warm contents race saves to one
    // path. Unique temp names mean every rename publishes a complete
    // file, so whichever writer lands last, the path always holds one
    // of the two valid snapshots — never an interleaving.
    let dir = scratch("race");
    let path = dir.join("claire.snapshot");
    let claire = Claire::new(ClaireOptions::default());

    let warm = |model: claire::model::Model| {
        let engine = Engine::new(2);
        claire
            .custom_for_with_engine(&model, &engine)
            .expect("warm custom");
        engine
    };
    let a = warm(zoo::alexnet());
    let b = warm(zoo::resnet18());
    let valid = [
        a.snapshot_bytes().expect("encode a"),
        b.snapshot_bytes().expect("encode b"),
    ];

    const ROUNDS: usize = 24;
    std::thread::scope(|s| {
        for engine in [&a, &b] {
            let path = &path;
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    assert!(engine.save_snapshot(path).expect("racing save"));
                }
            });
        }
    });

    let on_disk = std::fs::read(&path).expect("snapshot exists");
    assert!(
        valid.contains(&on_disk),
        "path holds bytes that match neither writer: torn file"
    );
    let restored = Engine::new(2);
    assert!(restored.load_snapshot(&path).expect("post-race load"));
    assert!(
        std::fs::read_dir(&dir)
            .expect("scratch dir")
            .filter_map(Result::ok)
            .all(|e| !e.file_name().to_string_lossy().contains("tmp")),
        "temp files were left behind"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_snapshot_is_a_quiet_cold_start() {
    let dir = scratch("missing");
    let claire = Claire::new(ClaireOptions {
        cache_dir: Some(dir.join("never-written")),
        ..ClaireOptions::default()
    });
    let engine = Engine::new(1);
    assert!(!claire
        .load_warm_state(&engine)
        .expect("missing is not an error"));
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Round-tripping is idempotent and canonical: an engine warmed
    /// by any subset of workloads in any order produces the same
    /// bytes as an engine restored from its own snapshot, and the
    /// same bytes as a second engine warmed in a different order.
    #[test]
    fn snapshot_round_trip_is_canonical(
        order in proptest::collection::vec(0usize..4, 1..4),
        threads in 1usize..4,
    ) {
        let pool = [zoo::alexnet(), zoo::resnet18(), zoo::vgg16(), zoo::gpt2()];
        let claire = Claire::new(ClaireOptions::default());

        let warm = |indices: &[usize], threads: usize| {
            let engine = Engine::new(threads);
            for &i in indices {
                claire
                    .custom_for_with_engine(&pool[i], &engine)
                    .expect("custom");
            }
            engine
        };

        let a = warm(&order, threads);
        let bytes_a = a.snapshot_bytes().expect("encode a");

        // Restore into a fresh engine: the re-encoded bytes match.
        let dir = scratch("prop");
        let path = dir.join("claire.snapshot");
        std::fs::write(&path, &bytes_a).expect("write");
        let restored = Engine::new(threads);
        prop_assert!(restored.load_snapshot(&path).expect("load"));
        prop_assert_eq!(&restored.snapshot_bytes().expect("encode restored"), &bytes_a);

        // A different evaluation order (and thread count) over the
        // same workload set reaches the same canonical bytes.
        let reversed: Vec<usize> = order.iter().rev().copied().collect();
        let b = warm(&reversed, 4usize.saturating_sub(threads).max(1));
        prop_assert_eq!(&b.snapshot_bytes().expect("encode b"), &bytes_a);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// FNV-1a 64 over `bytes` — the envelope checksum, recomputed so a
/// mutated payload passes the header checks and reaches the decoder.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Header length: magic + BOM + version + payload length + checksum.
const HEADER_LEN: usize = 30;

/// A valid snapshot of a warmed engine, built once for every case.
fn valid_snapshot() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let engine = Engine::new(1);
        Claire::new(ClaireOptions::default())
            .custom_for_with_engine(&zoo::alexnet(), &engine)
            .expect("warm custom");
        engine.snapshot_bytes().expect("encode")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A payload with flipped or truncated bytes but a re-stamped,
    /// self-consistent envelope either loads or is rejected with a
    /// typed `SnapshotInvalid`. It never panics, and a rejected load
    /// leaves the engine exactly as it was.
    #[test]
    fn mutated_payloads_load_or_reject_typed(
        flips in proptest::collection::vec((0usize..1 << 30, 1u8..255, 0u8..4), 0..6),
        cut in (0u8..2, 0usize..1 << 30),
    ) {
        let valid = valid_snapshot();
        let mut payload = valid[HEADER_LEN..].to_vec();
        let len = payload.len();
        for (at, byte, mode) in flips {
            match mode {
                // XOR anywhere.
                0 => payload[at % len] ^= byte,
                // XOR in the first 256 bytes: section counts and the
                // first length prefixes.
                1 => payload[at % len.min(256)] ^= byte,
                // A small value — a plausible tag, op class or length —
                // in the last 2 KiB, where partitions and graphs live.
                2 => payload[len - 1 - at % len.min(2048)] = byte % 16,
                // A small value anywhere.
                _ => payload[at % len] = byte % 16,
            }
        }
        if cut.0 == 1 {
            payload.truncate(cut.1 % payload.len());
        }
        let mut bytes = valid[..HEADER_LEN].to_vec();
        bytes[14..22].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes[22..30].copy_from_slice(&fnv1a(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);

        let dir = scratch("mutate");
        let path = dir.join("claire.snapshot");
        std::fs::write(&path, &bytes).expect("write");
        let engine = Engine::new(1);
        let untouched = engine.snapshot_bytes().expect("encode empty");
        match engine.load_snapshot(&path) {
            Ok(loaded) => prop_assert!(loaded),
            Err(ClaireError::SnapshotInvalid { .. }) => {
                prop_assert_eq!(&engine.snapshot_bytes().expect("encode"), &untouched);
                prop_assert!(!engine.tiers_persisted());
            }
            Err(other) => prop_assert!(false, "untyped rejection: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

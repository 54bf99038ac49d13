//! Paper-scale encoding pin: every Table 2 job (the five paper
//! circuits at full size and their paper LFSR sizes, L in
//! {50, 200, 500}) and every Table 3 job (L = 300) must reproduce the
//! checked-in `tests/golden/paper_scale.txt` exactly: cube count, seed
//! count, TDV, and a digest of every seed's bits and every placement.
//!
//! The golden corpus pins the encoder at scale 0.1 and L = 24; this
//! file pins the frames, windows and plane caches that only full-scale
//! encodings reach. It is `#[ignore]`d because it encodes twenty
//! paper-size jobs; run it in release mode:
//!
//! ```text
//! cargo test --release --test paper_scale -- --ignored
//! ```
//!
//! A diff is a behaviour change. To re-pin after an intentional one:
//!
//! ```text
//! SS_REGEN_GOLDEN=1 cargo test --release --test paper_scale -- --ignored
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use ss_core::{Encoded, EncodingResult, Engine};
use ss_testdata::{CubeProfile, WorkloadRegistry};

/// Table 2's windows, then Table 3's.
const WINDOWS: [usize; 4] = [50, 200, 500, 300];

/// FNV-1a over little-endian `u64` words.
fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of every seed's bits and every placement, in order.
fn digest(encoding: &EncodingResult) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for seed in &encoding.seeds {
        for &word in seed.seed.as_words() {
            hash = fnv1a(hash, word);
        }
        hash = fnv1a(hash, seed.placements.len() as u64);
        for p in &seed.placements {
            hash = fnv1a(hash, p.cube as u64);
            hash = fnv1a(hash, p.position as u64);
        }
    }
    hash
}

/// Encodes one job the way the paper benches do: the paper LFSR size,
/// intrinsically unencodable cubes dropped against that hardware.
fn measure(profile: &CubeProfile, window: usize) -> String {
    let set = WorkloadRegistry::find(profile.name)
        .expect("every paper circuit is a registry workload")
        .test_set();
    let engine = Engine::builder()
        .window(window)
        .lfsr_size(profile.lfsr_size)
        .build()
        .expect("paper knobs are valid");
    let ctx = engine.synthesize(&set).expect("synthesis succeeds");
    let (encodable, dropped) = ctx.encodable_subset(&set);
    let encoded = Encoded::from_ctx(&encodable, ctx).expect("encodable cubes encode");
    let encoding = encoded.encoding();
    format!(
        "{} L={window} cubes={} dropped={} lfsr={} seeds={} tdv={} digest={:016x}",
        profile.name,
        encodable.len(),
        dropped.len(),
        profile.lfsr_size,
        encoding.seeds.len(),
        encoding.tdv(),
        digest(encoding)
    )
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("paper_scale.txt")
}

#[test]
#[ignore = "encodes twenty paper-size jobs; run with --release -- --ignored"]
fn paper_scale_encodings_match_golden_values() {
    let mut rendered = String::new();
    writeln!(
        rendered,
        "# paper-scale encodings: full-size profiles, paper LFSR sizes, L in {WINDOWS:?}"
    )
    .unwrap();
    writeln!(
        rendered,
        "# regenerate with: SS_REGEN_GOLDEN=1 cargo test --release --test paper_scale -- --ignored"
    )
    .unwrap();
    let mut measured = Vec::new();
    for window in WINDOWS {
        for profile in CubeProfile::paper_circuits() {
            let line = measure(&profile, window);
            writeln!(rendered, "{line}").unwrap();
            measured.push(line);
        }
    }

    let regen = std::env::var("SS_REGEN_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0");
    if regen {
        std::fs::write(golden_path(), &rendered).expect("golden file is writable");
        return;
    }

    let golden =
        std::fs::read_to_string(golden_path()).expect("tests/golden/paper_scale.txt exists");
    let golden: Vec<&str> = golden
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(golden.len(), measured.len(), "job list changed");
    for (want, got) in golden.iter().zip(&measured) {
        assert_eq!(
            want, got,
            "paper-scale drift (SS_REGEN_GOLDEN=1 to re-pin after an intentional change)"
        );
    }
}

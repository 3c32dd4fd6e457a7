//! The product binary end to end: a tiny-budget `all_experiments` pass
//! must write figure JSON whose fingerprint equals the one pinned in
//! `tests/golden/tiny_fingerprint.txt` (`scripts/ci.sh` gates its
//! audited and telemetry passes on the same file), `--check-jsonl`
//! must reject what is not a run-telemetry record, and removed knobs
//! must warn and change nothing.
//!
//! The fingerprint is SHA-256 over the pass's `*.json` files
//! concatenated in name order — the bytes `cat *.json | sha256sum`
//! reads. Change the pin only together with a CHANGES.md entry that
//! names and justifies every figure number that moved.

use std::path::PathBuf;
use std::process::{Command, Output};

const PRODUCT: &str = env!("CARGO_BIN_EXE_all_experiments");
const PIN: &str = include_str!("golden/tiny_fingerprint.txt");

/// A fresh scratch path under the system temp dir, unique to this
/// process and `name`.
fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("atr_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

/// Runs the product with exactly `envs` in its environment.
fn product(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(PRODUCT);
    cmd.env_clear().args(args).envs(envs.iter().copied());
    cmd.output().expect("the product binary starts")
}

#[test]
fn tiny_pass_reproduces_the_pinned_fingerprint() {
    let dir = scratch("fingerprint");
    let tiny = [
        ("ATR_SIM_WARMUP", "500"),
        ("ATR_SIM_INSTS", "2000"),
        ("ATR_SIM_PROGRESS", "0"),
        ("ATR_SIM_THREADS", "2"),
        ("ATR_RESULTS_DIR", dir.to_str().expect("a UTF-8 temp dir")),
    ];
    let out = product(&[], &tiny);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "the tiny pass failed ({}):\n{stderr}", out.status);

    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("the pass wrote its results dir")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 10, "one JSON file per simulating entry: {files:?}");
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend(std::fs::read(file).expect("readable results file"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(hex(&sha256(&bytes)), PIN.trim(), "the tiny-pass figures changed");
}

#[test]
fn check_jsonl_rejects_a_malformed_record_and_an_empty_file() {
    let bad = scratch("bad_record.jsonl");
    std::fs::write(&bad, "\n{\"schema\": \"atr-run-telemetry-v1\"\n").unwrap();
    let out = product(&["--check-jsonl", bad.to_str().unwrap()], &[]);
    std::fs::remove_file(&bad).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("{}:2: invalid telemetry record", bad.display())), "{stderr}");

    let empty = scratch("empty.jsonl");
    std::fs::write(&empty, "").unwrap();
    let out = product(&["--check-jsonl", empty.to_str().unwrap()], &[]);
    std::fs::remove_file(&empty).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("no telemetry records"), "{stderr}");

    // Without a file it is a bad argument, like any other.
    let out = product(&["--check-jsonl"], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--check-jsonl FILE..."), "the usage line lists it: {stderr}");
}

/// The retired knobs and the removed `trace` level each warn once, and
/// the pass runs with telemetry off.
#[test]
fn retired_knobs_and_the_removed_trace_level_warn_and_change_nothing() {
    let retired = ["ATR_RUN_JOURNAL", "ATR_TRACE_CAP", "ATR_TRACE_DUMP", "ATR_TELEMETRY_SERIES"];
    for level in ["trace", "2"] {
        let dir = scratch("retired_knobs");
        let mut envs = vec![
            ("ATR_TELEMETRY", level),
            ("ATR_RESULTS_DIR", dir.to_str().expect("a UTF-8 temp dir")),
        ];
        envs.extend(retired.map(|name| (name, "1")));
        let out = product(&["--only", "table1"], &envs);
        let _ = std::fs::remove_dir_all(&dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        assert!(out.stdout.is_empty(), "no telemetry records at off");
        let warned = |needle: &str| stderr.matches(needle).count();
        assert_eq!(warned(&format!("ignoring malformed ATR_TELEMETRY=\"{level}\"")), 1, "{stderr}");
        for name in retired {
            assert_eq!(warned(&format!("ignoring {name}:")), 1, "{stderr}");
        }
        assert!(stderr.contains("telemetry=Off"), "{stderr}");
    }
}

#[test]
fn sha256_matches_the_fips_180_4_vectors() {
    assert_eq!(
        hex(&sha256(b"abc")),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    assert_eq!(
        hex(&sha256(b"")),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-256 (FIPS 180-4) of `msg`.
fn sha256(msg: &[u8]) -> [u8; 32] {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padding: a 1 bit, zeros to 56 mod 64, then the bit length.
    let mut data = msg.to_vec();
    data.push(0x80);
    while data.len() % 64 != 56 {
        data.push(0);
    }
    data.extend((msg.len() as u64 * 8).to_be_bytes());

    for block in data.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for (k, wi) in K.into_iter().zip(w) {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(k).wrapping_add(wi);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            (hh, g, f, e, d, c, b, a) = (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
        }
        for (state, add) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *state = state.wrapping_add(add);
        }
    }
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

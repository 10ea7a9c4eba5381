//! End-to-end tests of the `mdz` binary. Every subcommand that writes an
//! archive goes through mdz-store, and every subcommand that reads one opens
//! both container versions: the version-2 archives `store`/`compress` write
//! and a golden version-1 archive from the retired writer.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Golden version-1 archive: 8 ADK frames in 4 MT-chained blocks.
const GOLDEN_V1: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/crates/mdz-store/tests/golden/adk_v1_mt.mdz");

/// A scratch directory private to one test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mdz_cli_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_str().unwrap().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mdz")).args(args).output().unwrap()
}

/// Runs `mdz args…`, requires success, and returns its stdout.
fn mdz(args: &[&str]) -> String {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "mdz {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

/// Runs `mdz args…`, requires a failure exit, and returns its stderr.
fn mdz_fails(args: &[&str]) -> String {
    let out = run(args);
    assert!(!out.status.success(), "mdz {args:?} succeeded");
    String::from_utf8(out.stderr).unwrap()
}

/// The value of the `key:` line of a printout.
fn field<'a>(out: &'a str, key: &str) -> &'a str {
    out.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .unwrap_or_else(|| panic!("no `{key}:` line in\n{out}"))
        .trim()
}

/// The `X x y z` atom rows of an `extract` or `get` printout.
fn atom_rows(out: &str) -> Vec<&str> {
    out.lines().filter(|l| l.starts_with("X ")).collect()
}

/// `gen lj --scale test`, then `store --abs 1e-3 --bs 1 --epoch 2`: four
/// one-frame buffers in two epochs. Returns the XYZ and archive paths.
fn lj_store(dir: &Scratch) -> (String, String) {
    let (xyz, archive) = (dir.path("t.xyz"), dir.path("s.mdz"));
    mdz(&["gen", "lj", &xyz, "--scale", "test"]);
    mdz(&["store", &xyz, &archive, "--abs", "1e-3", "--bs", "1", "--epoch", "2"]);
    (xyz, archive)
}

fn read_xyz(path: &str) -> mdz::xyz::XyzTrajectory {
    mdz::xyz::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

#[test]
fn verify_checks_the_bound_of_a_store_archive() {
    let dir = Scratch::new("verify");
    let (xyz, archive) = lj_store(&dir);
    let out = mdz(&["verify", &xyz, &archive]);
    let max_error: f64 = field(&out, "max error").parse().unwrap();
    assert!(max_error <= 1e-3, "{out}");
}

#[test]
fn verify_fails_when_a_value_leaves_its_blocks_bound() {
    let dir = Scratch::new("verify_bound");
    let (xyz, archive) = lj_store(&dir);
    // Move one y coordinate of frame 2 (block 2 at one frame per block)
    // half a unit away from what the archive holds.
    let mut traj = read_xyz(&xyz);
    traj.frames[2].y[5] += 0.5;
    let shifted = dir.path("shifted.xyz");
    std::fs::write(&shifted, mdz::xyz::write(&traj)).unwrap();
    let err = mdz_fails(&["verify", &shifted, &archive]);
    assert!(err.contains("axis y of block 2"), "{err}");
}

#[test]
fn extract_prints_the_rows_get_prints() {
    let dir = Scratch::new("extract");
    let (_, archive) = lj_store(&dir);
    // Frame 2 anchors the second epoch; frame 3 decodes from that anchor.
    for k in [2, 3] {
        let extracted = mdz(&["extract", &archive, &k.to_string()]);
        let got = mdz(&["get", &archive, &format!("{k}..{}", k + 1)]);
        assert_eq!(atom_rows(&extracted).len(), 256, "frame {k}");
        assert_eq!(atom_rows(&extracted), atom_rows(&got), "frame {k}");
    }
    assert!(mdz_fails(&["extract", &archive, "4"]).contains("out of bounds"));
}

#[test]
fn decompress_restores_elements_comments_and_bound() {
    let dir = Scratch::new("decompress");
    let (xyz, archive) = lj_store(&dir);
    let restored = dir.path("r.xyz");
    mdz(&["decompress", &archive, &restored]);
    let (src, out) = (read_xyz(&xyz), read_xyz(&restored));
    assert_eq!(out.elements, src.elements);
    assert_eq!(out.comments, src.comments);
    assert_eq!(out.frames.len(), src.frames.len());
    for (a, b) in src.frames.iter().zip(&out.frames) {
        for (u, v) in [(&a.x, &b.x), (&a.y, &b.y), (&a.z, &b.z)] {
            for (p, q) in u.iter().zip(v) {
                // The XYZ text rounds to 1e-10 on top of the bound.
                assert!((p - q).abs() <= 1e-3 + 1e-9, "{p} vs {q}");
            }
        }
    }
}

#[test]
fn info_tallies_three_axis_methods_per_block() {
    let dir = Scratch::new("info");
    let (_, archive) = lj_store(&dir);
    let out = mdz(&["info", &archive]);
    assert_eq!(field(&out, "frames"), "4");
    assert_eq!(field(&out, "epochs"), "2");
    let blocks: usize = field(&out, "blocks").parse().unwrap();
    let tallied: usize = field(&out, "methods")
        .split(", ")
        .map(|m| m.split_once(" ×").unwrap().1.parse::<usize>().unwrap())
        .sum();
    assert_eq!(tallied, 3 * blocks, "{out}");
}

#[test]
fn info_counts_stored_blocks_apart() {
    // On protein data LZ77 does not pay, so ADP stores the axis payloads
    // (version-3 blocks); `info` tallies them apart, and they verify.
    let dir = Scratch::new("stored");
    let (xyz, archive) = (dir.path("adk.xyz"), dir.path("adk.mdz"));
    mdz(&["gen", "adk", &xyz, "--scale", "test", "--seed", "7"]);
    mdz(&["store", &xyz, &archive, "--bs", "2", "--epoch", "2"]);
    let out = mdz(&["info", &archive]);
    let methods = field(&out, "methods");
    assert!(methods.contains(" stored ×"), "{out}");
    let blocks: usize = field(&out, "blocks").parse().unwrap();
    let tallied: usize =
        methods.split(", ").map(|m| m.split_once(" ×").unwrap().1.parse::<usize>().unwrap()).sum();
    assert_eq!(tallied, 3 * blocks, "{out}");
    mdz(&["verify", &xyz, &archive]);
}

#[test]
fn compress_writes_the_bytes_store_writes() {
    let dir = Scratch::new("compress");
    let (xyz, archive) = lj_store(&dir);
    let compressed = dir.path("c.mdz");
    mdz(&["compress", &xyz, &compressed, "--abs", "1e-3", "--bs", "1", "--epoch", "2"]);
    assert_eq!(std::fs::read(&compressed).unwrap(), std::fs::read(&archive).unwrap());
}

#[test]
fn compress_beats_raw_storage() {
    let dir = Scratch::new("ratio");
    let (xyz, archive) = (dir.path("t.xyz"), dir.path("c.mdz"));
    mdz(&["gen", "lj", &xyz, "--scale", "test"]);
    mdz(&["compress", &xyz, &archive]);
    let src = read_xyz(&xyz);
    let raw = src.frames.len() * src.frames[0].len() * 24;
    let size = std::fs::metadata(&archive).unwrap().len() as usize;
    assert!(size * 5 < raw, "{raw} → {size} bytes");
}

#[test]
fn compress_f32_stores_single_precision() {
    let dir = Scratch::new("f32");
    let (xyz, archive) = (dir.path("t.xyz"), dir.path("f.mdz"));
    mdz(&["gen", "lj", &xyz, "--scale", "test"]);
    mdz(&["compress", &xyz, &archive, "--f32"]);
    assert_eq!(field(&mdz(&["info", &archive]), "precision"), "f32");
    // The bound holds against the f32-rounded source.
    mdz(&["verify", &xyz, &archive]);
}

#[test]
fn corrupt_and_empty_inputs_fail_cleanly() {
    let dir = Scratch::new("corrupt");
    let (_, archive) = lj_store(&dir);
    let clean = std::fs::read(&archive).unwrap();
    let bad = dir.path("bad.mdz");
    // A flipped byte inside the first block record fails its checksum.
    let mut flipped = clean.clone();
    flipped[clean.len() / 8] ^= 0xFF;
    std::fs::write(&bad, &flipped).unwrap();
    assert!(mdz_fails(&["decompress", &bad, &dir.path("r.xyz")]).contains("checksum mismatch"));
    assert!(mdz_fails(&["verify", &bad]).contains("checksum mismatch"));
    // Truncated and foreign files do not open.
    std::fs::write(&bad, &clean[..clean.len() - 1]).unwrap();
    mdz_fails(&["info", &bad]);
    std::fs::write(&bad, &clean[..3]).unwrap();
    mdz_fails(&["decompress", &bad, &dir.path("r.xyz")]);
    let mut foreign = clean.clone();
    foreign[0] = b'X';
    std::fs::write(&bad, &foreign).unwrap();
    mdz_fails(&["extract", &bad, "0"]);
    // An empty trajectory writes no archive.
    let empty = dir.path("empty.xyz");
    std::fs::write(&empty, "").unwrap();
    assert!(mdz_fails(&["compress", &empty, &dir.path("e.mdz")]).contains("no frames"));
}

/// The golden archive was written by the retired version-1 writer:
/// `mdz gen adk g.xyz --scale test --seed 7`, then
/// `mdz compress g.xyz adk_v1_mt.mdz --bs 2 --method mt`.
#[test]
fn golden_v1_archive_reads_through_the_cli() {
    let info = mdz(&["info", GOLDEN_V1]);
    assert_eq!(field(&info, "version"), "1");
    assert_eq!(field(&info, "frames"), "8");
    assert_eq!(field(&info, "blocks"), "4");
    assert_eq!(field(&info, "epochs"), "1");
    assert_eq!(field(&info, "methods"), "MT ×12");
    assert!(mdz(&["verify", GOLDEN_V1]).contains(": ok"));

    let dir = Scratch::new("golden");
    let restored = dir.path("r.xyz");
    mdz(&["decompress", GOLDEN_V1, &restored]);
    let traj = read_xyz(&restored);
    assert_eq!(traj.frames.len(), 8);
    assert_eq!(traj.elements, vec!["X".to_string(); 300]);
    assert_eq!(traj.comments, (0..8).map(|t| format!("ADK frame {t}")).collect::<Vec<_>>());
    // Frame 7 sits in the last block: its MT chain runs through all four.
    for k in [0, 7] {
        let extracted = mdz(&["extract", GOLDEN_V1, &k.to_string()]);
        let got = mdz(&["get", GOLDEN_V1, &format!("{k}..{}", k + 1)]);
        assert_eq!(atom_rows(&extracted).len(), 300, "frame {k}");
        assert_eq!(atom_rows(&extracted), atom_rows(&got), "frame {k}");
    }
}

/// A served child process, killed on drop so a failing test leaves no
/// server behind.
struct Served(std::process::Child);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn serve_answers_from_an_archive_with_a_torn_tail() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = Scratch::new("serve_torn");
    let (_, archive) = lj_store(&dir);
    let torn = dir.path("torn.mdz");
    let mut bytes = std::fs::read(&archive).unwrap();
    bytes.extend_from_slice(b"torn append!!!");
    std::fs::write(&torn, &bytes).unwrap();

    let mut served = Served(
        Command::new(env!("CARGO_BIN_EXE_mdz"))
            .args(["serve", &torn, "127.0.0.1:0", "--threads", "1"])
            .stderr(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let mut log = String::new();
    let mut lines = BufReader::new(served.0.stderr.take().unwrap()).lines();
    let addr = loop {
        let line = lines.next().expect("server exited before serving").unwrap();
        log.push_str(&line);
        log.push('\n');
        if let Some((_, addr)) = line.split_once(" on ") {
            break addr.to_string();
        }
    };
    assert!(log.contains("torn tail") && log.contains("ignoring 14 garbage bytes"), "{log}");
    let remote = mdz(&["query", &addr, "1..3"]);
    let retried = mdz(&["query", &addr, "1..3", "--retries", "2"]);
    drop(served);

    mdz(&["recover", &torn]);
    let local = mdz(&["get", &torn, "1..3"]);
    assert_eq!(atom_rows(&remote).len(), 2 * 256);
    assert_eq!(atom_rows(&remote), atom_rows(&local));
    assert_eq!(atom_rows(&retried), atom_rows(&local));
}

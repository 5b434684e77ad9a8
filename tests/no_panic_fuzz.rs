//! Fuzz-style robustness: the text parsers (workbooks, stands, scripts,
//! expressions, CLI option values) must never panic, whatever bytes
//! arrive — they either produce a value or a diagnostic. Inputs are
//! random strings plus mutated versions of the valid bundled artifacts
//! (mutations keep the input "almost right", where panics usually hide).
//! The campaign cache gets the same treatment: hostile cache-directory
//! paths yield a graceful [`comptest::core::CoreError::Cache`] (or a
//! working cache), never a panic, and feeding a hostile store never
//! fails a run.

use comptest::core::CoreError;
use comptest::engine::{CampaignCache, DirCache};
use comptest::prelude::*;
use proptest::prelude::*;

/// Loads, stores, reloads — the full round a campaign would drive, on
/// whatever directory the fuzzer produced. (Fuzzed path fragments may
/// contain `.`/`..` components, so two cases can land on the same
/// directory: no assumption is made about pre-existing entries, only that
/// nothing panics.)
fn exercise_cache(cache: &DirCache) {
    let key = comptest::core::CellKey {
        suite_hash: 1,
        stand_hash: 2,
        dut_config_hash: 3,
        exec_hash: 4,
    };
    let _ = cache.load(&key);
    let record = comptest::engine::CellRecord {
        total: 1,
        tests: vec![Err("fuzz".into())],
        footprint: None,
    };
    cache.store(&key, &record);
    // Stores are best-effort: a load now yields the record or (if the OS
    // rejected the write) nothing — both are fine, panics are not.
    let _ = cache.load(&key);
}

/// The explicit hostile-path cases the fuzzer cannot reliably produce:
/// empty path, a path naming an existing *file*, a read-only parent. All
/// must yield `CoreError::Cache` or a working cache — never a panic — and
/// a cache whose directory turns read-only after opening must silently
/// drop stores rather than failing the campaign.
#[test]
fn dir_cache_hostile_paths_are_graceful() {
    assert!(matches!(DirCache::open(""), Err(CoreError::Cache { .. })));

    let base = std::env::temp_dir().join(format!("comptest-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    // A file where a directory should be.
    let file = base.join("occupied");
    std::fs::write(&file, "not a dir").unwrap();
    assert!(matches!(
        DirCache::open(&file),
        Err(CoreError::Cache { .. })
    ));
    // ...and nesting *under* a file cannot create the directory either.
    assert!(matches!(
        DirCache::open(file.join("child")),
        Err(CoreError::Cache { .. })
    ));

    // Deeply nested fresh path: created on demand.
    let nested = base.join("a").join("b").join("c");
    exercise_cache(&DirCache::open(&nested).unwrap());

    // Read-only directory: opening may succeed or fail depending on
    // privileges (root ignores mode bits); either way nothing panics and
    // stores stay best-effort.
    let ro = base.join("readonly");
    std::fs::create_dir_all(&ro).unwrap();
    let mut perms = std::fs::metadata(&ro).unwrap().permissions();
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        perms.set_mode(0o555);
    }
    std::fs::set_permissions(&ro, perms.clone()).unwrap();
    match DirCache::open(&ro) {
        Ok(cache) => exercise_cache(&cache),
        Err(e) => assert!(matches!(e, CoreError::Cache { .. })),
    }
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        perms.set_mode(0o755);
        let _ = std::fs::set_permissions(&ro, perms);
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// A real encoded binary cache record (the bundled campaign's first cell,
/// executed once per process) — the mutation base for codec fuzzing.
fn valid_record_bytes() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let suites = comptest::load_bundled_suites().expect("bundled suites");
        let entries = comptest::bundled_entries(&suites);
        let stand = TestStand::load(comptest::asset("stand_b.stand")).unwrap();
        let stands = [&stand];
        let cache = std::sync::Arc::new(comptest::engine::MemoryCache::new());
        let campaign = Campaign::new(&entries, &stands).cache(cache.clone());
        let _ = campaign.run(&SerialExecutor).unwrap();
        let key =
            comptest::core::CellKey::for_cell(&entries[0], &stand, &ExecOptions::default(), "");
        let record = cache.load(&key).expect("populated record");
        comptest::engine::cache::binary::encode(&record)
    })
}

/// Hand-crafted hostile binary records the mutator cannot reliably
/// produce: a wrong version byte (future format) and oversized declared
/// counts/lengths (allocation bombs). All must decode as errors — and read
/// as plain misses through a [`DirCache`] — never panic or allocate.
#[test]
fn binary_wrong_version_and_oversized_lengths_are_misses() {
    use comptest::engine::cache::binary;

    let base = std::env::temp_dir().join(format!("comptest-binfuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cache = DirCache::open(&base).unwrap();
    let key = comptest::core::CellKey {
        suite_hash: 1,
        stand_hash: 2,
        dut_config_hash: 3,
        exec_hash: 4,
    };
    let record = comptest::engine::CellRecord {
        total: 2,
        tests: vec![Err("fuzz".into())],
        footprint: None,
    };
    cache.store(&key, &record);
    let path = base.join(format!("{key}.bin"));
    let good = std::fs::read(&path).unwrap();
    assert_eq!(binary::decode(&good).unwrap(), record);

    // A future version byte: an error for decode *and* probe, a miss for
    // the cache (which then self-heals on the next store).
    let mut wrong = good.clone();
    wrong[3] = binary::VERSION + 1;
    assert!(binary::decode(&wrong).is_err());
    assert!(binary::probe(&wrong).is_err());
    std::fs::write(&path, &wrong).unwrap();
    assert!(
        cache.load(&key).is_none(),
        "wrong version must read as a miss"
    );
    cache.store(&key, &record);
    assert_eq!(cache.load(&key), Some(record.clone()), "store self-heals");

    // An outcome declaring a 2^60-byte body: the length guard must reject
    // it against the remaining buffer before trusting (or allocating) it.
    let mut bomb = Vec::new();
    bomb.extend_from_slice(&binary::MAGIC);
    bomb.push(binary::VERSION);
    bomb.push(0); // flags: does not end in Err
    bomb.push(1); // total = 1
    bomb.push(1); // n_tests = 1
    bomb.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10]); // len = 2^60
    assert!(binary::decode(&bomb).is_err());
    std::fs::write(&path, &bomb).unwrap();
    assert!(
        cache.load(&key).is_none(),
        "oversized length must read as a miss"
    );

    let _ = std::fs::remove_dir_all(&base);
}

/// Runs `comptest worker` with `input` as its entire stdin and returns
/// (exit code, stderr). Stdin closes after the write, so a worker waiting
/// for more frame bytes sees EOF and can never hang the test.
fn run_worker(input: &[u8]) -> (Option<i32>, String) {
    use std::io::Write as _;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_comptest"))
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn comptest worker");
    // The worker may exit (and close the pipe) before the write finishes —
    // a refused write is part of the scenario, not a test failure.
    let _ = child.stdin.take().expect("piped stdin").write_all(input);
    let out = child.wait_with_output().expect("worker exit");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// One length-prefixed worker frame around `payload`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(payload);
    bytes
}

/// A valid `Hello` frame (tag 0, magic `CWP`, version 3, end-of-step
/// sampling, stop-on-failure off, test granularity) — hand-assembled so
/// the hostile bytes *after* the handshake exercise the post-handshake
/// decode path.
fn hello_frame() -> Vec<u8> {
    frame(&[0x00, b'C', b'W', b'P', 0x03, 0x00, 0x00, 0x01])
}

/// The hostile framings random junk almost never produces: oversized and
/// truncated length prefixes, unknown tags, and garbage arriving after a
/// valid handshake. Every case must end in exit 0 (treated as EOF) or a
/// refused exit 2 — never a panic, never a hang.
#[test]
fn worker_hostile_framings_are_refused_not_panicked() {
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("empty stdin", Vec::new()),
        ("truncated length prefix", vec![0x07, 0x00]),
        ("length prefix without payload", frame(&[])[..4].to_vec()),
        (
            "declared length exceeds the frame cap",
            0xffff_ffffu32.to_le_bytes().to_vec(),
        ),
        (
            "payload shorter than declared",
            [&100u32.to_le_bytes()[..], &[0x00; 10]].concat(),
        ),
        ("empty payload frame", frame(&[])),
        ("unknown frame tag", frame(&[0xee, 1, 2, 3])),
        (
            "bad protocol magic",
            frame(&[0x00, b'X', b'Y', b'Z', 0x01, 0x00, 0x00]),
        ),
        (
            "future protocol version",
            frame(&[0x00, b'C', b'W', b'P', 0x7f, 0x00, 0x00, 0x01]),
        ),
        (
            "previous protocol version",
            frame(&[0x00, b'C', b'W', b'P', 0x02, 0x00, 0x00, 0x01]),
        ),
        (
            "unknown granularity in the handshake",
            frame(&[0x00, b'C', b'W', b'P', 0x03, 0x00, 0x00, 0x07]),
        ),
        ("garbage after a valid handshake", {
            let mut bytes = hello_frame();
            bytes.extend_from_slice(&frame(&[0xee, 0xff, 0x00, 0x41]));
            bytes
        }),
        (
            "duplicate handshake",
            [hello_frame(), hello_frame()].concat(),
        ),
        ("run frame referencing unknown intern ids", {
            // Run (tag 3): job 0, cell 0, first test 0, empty suite, zero
            // scripts, stand id 9 that was never interned, then a
            // well-formed device spec (empty behaviour, five zero floats,
            // no dropped frames) — the worker must refuse, not index.
            let mut run = vec![0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00];
            run.extend_from_slice(&[0x00; 40]);
            run.push(0x00);
            let mut bytes = hello_frame();
            bytes.extend_from_slice(&frame(&run));
            bytes
        }),
        ("run frame cut off inside its device spec", {
            let mut bytes = hello_frame();
            bytes.extend_from_slice(&frame(&[0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09]));
            bytes
        }),
    ];
    // The hand-built handshake must still be accepted, or every case
    // after it would only test the version check: EOF right after it is a
    // clean shutdown.
    let (code, stderr) = run_worker(&hello_frame());
    assert_eq!(code, Some(0), "valid handshake refused: {stderr}");
    for (label, input) in cases {
        let (code, stderr) = run_worker(&input);
        assert!(
            matches!(code, Some(0) | Some(2)),
            "{label}: worker must exit cleanly, got {code:?} (stderr: {stderr})"
        );
        assert!(
            !stderr.contains("panicked"),
            "{label}: worker panicked: {stderr}"
        );
    }
}

fn mutate(base: &str, position: usize, replacement: &str) -> String {
    let mut chars: Vec<char> = base.chars().collect();
    let pos = position % chars.len().max(1);
    let rep: Vec<char> = replacement.chars().collect();
    chars.splice(pos..(pos + rep.len().min(chars.len() - pos)), rep);
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn workbook_parser_never_panics(input in ".{0,300}") {
        let _ = Workbook::parse_str("fuzz.cts", &input);
    }

    #[test]
    fn stand_parser_never_panics(input in ".{0,300}") {
        let _ = TestStand::parse_str("fuzz.stand", &input);
    }

    #[test]
    fn xml_parser_never_panics(input in ".{0,300}") {
        let _ = TestScript::parse_xml(&input);
        let _ = comptest::script::xml::parse(&input);
    }

    #[test]
    fn mutated_workbook_never_panics(position in 0usize..4096, junk in "[\\x00-\\xff]{1,8}") {
        let base = std::fs::read_to_string(comptest::asset("interior_light.cts")).unwrap();
        let mutated = mutate(&base, position, &junk);
        let _ = Workbook::parse_str("mut.cts", &mutated);
    }

    #[test]
    fn mutated_stand_never_panics(position in 0usize..2048, junk in "[\\x00-\\xff]{1,8}") {
        let base = std::fs::read_to_string(comptest::asset("stand_b.stand")).unwrap();
        let mutated = mutate(&base, position, &junk);
        let _ = TestStand::parse_str("mut.stand", &mutated);
    }

    #[test]
    fn mutated_script_never_panics(position in 0usize..8192, junk in "[\\x00-\\xff]{1,8}") {
        let suite = Workbook::load(comptest::asset("interior_light.cts")).unwrap().suite;
        let base = generate(&suite, "interior_illumination").unwrap().to_xml();
        let mutated = mutate(&base, position, &junk);
        let _ = TestScript::parse_xml(&mutated);
    }

    #[test]
    fn expression_parser_never_panics(input in ".{0,64}") {
        let _ = comptest::model::Expr::parse(&input);
    }

    #[test]
    fn sample_mode_parser_never_panics(input in ".{0,48}") {
        let _ = input.parse::<SampleMode>();
    }

    /// Near-miss sample-mode spellings: the `continuous:` prefix followed
    /// by arbitrary bytes must parse or error, never panic.
    #[test]
    fn sample_mode_continuous_suffix_never_panics(suffix in "[\\x00-\\xff]{0,16}") {
        let _ = format!("continuous:{suffix}").parse::<SampleMode>();
        let _ = format!("END-OF-STEP{suffix}").parse::<SampleMode>();
    }

    /// Every truncation of a valid binary cache record is a decode error
    /// — never a panic, never a partial record (decode demands the full
    /// buffer is consumed, so only the untruncated input succeeds).
    #[test]
    fn binary_record_truncation_never_panics(cut in 0usize..1_000_000) {
        let bytes = valid_record_bytes();
        let cut = cut % (bytes.len() + 1);
        let decoded = comptest::engine::cache::binary::decode(&bytes[..cut]);
        prop_assert_eq!(decoded.is_ok(), cut == bytes.len());
        let _ = comptest::engine::cache::binary::probe(&bytes[..cut]);
    }

    /// Single-bit corruption anywhere in a valid binary record either
    /// decodes (the flip hit a value byte) or errors — never panics.
    #[test]
    fn binary_record_bit_flips_never_panic(pos in 0usize..1_000_000, bit in 0u8..8) {
        let mut bytes = valid_record_bytes().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        let _ = comptest::engine::cache::binary::decode(&bytes);
        let _ = comptest::engine::cache::binary::probe(&bytes);
    }

    /// Arbitrary junk bytes never panic the binary codec.
    #[test]
    fn binary_record_junk_never_panics(junk in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = comptest::engine::cache::binary::decode(&junk);
        let _ = comptest::engine::cache::binary::probe(&junk);
    }

    /// Arbitrary junk on a worker's stdin: the frame codec behind
    /// `comptest worker` must refuse (exit 2) or treat it as EOF (exit 0),
    /// never panic. Each case spawns a real worker process, so the junk is
    /// kept small — the crafted framings below cover the structured cases.
    #[test]
    fn worker_stdin_junk_never_panics(junk in prop::collection::vec(any::<u8>(), 0..128)) {
        let (code, stderr) = run_worker(&junk);
        prop_assert!(
            matches!(code, Some(0) | Some(2)),
            "worker must exit cleanly on junk, got {code:?} (stderr: {stderr})"
        );
        prop_assert!(!stderr.contains("panicked"), "worker panicked: {stderr}");
    }

    /// Hostile cache-directory paths: empty, raw control/8-bit bytes,
    /// deeply nested, embedded NUL-adjacent junk. `DirCache::open` must
    /// return `Ok` (the path happened to be creatable) or a graceful
    /// `CoreError::Cache` — and an opened cache must absorb loads and
    /// stores without panicking, whatever the OS did to the path.
    #[test]
    fn dir_cache_open_never_panics(raw in "[\\x01-\\xff]{0,24}", depth in 0usize..4) {
        let base = std::env::temp_dir().join(format!("comptest-fuzz-{}", std::process::id()));
        let mut path = base.join(&raw);
        for level in 0..depth {
            path = path.join(format!("n{level}"));
        }
        match DirCache::open(&path) {
            Ok(cache) => exercise_cache(&cache),
            Err(e) => prop_assert!(
                matches!(e, CoreError::Cache { .. }),
                "open must fail with CoreError::Cache, got {e:?}"
            ),
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}

//! The `cachescope` binary refuses technique specs the PMU cannot run
//! with a typed diagnostic and exit code 2, and replays traces with
//! hostile object extents under every technique, instead of panicking.

use std::process::Command;

#[test]
fn periods_that_can_reach_zero_exit_2_with_p003() {
    for spec in ["sampling:0", "jittered:0:0", "adaptive:0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_cachescope"))
            .args(["mgrid", "--technique", spec])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
        assert!(stderr.contains("error[CS-P003]"), "{spec}: {stderr}");
        assert!(out.stdout.is_empty(), "{spec}: no report on refusal");
    }
}

/// A text trace: a header, `body` lines, then `reads` line-strided reads
/// sweeping 4 KiB from `lo`.
fn text_trace(body: &str, lo: u64, reads: u64) -> String {
    let mut t = format!("cachescope-trace 1\nN hostile\n{body}");
    for i in 0..reads {
        t.push_str(&format!("A {:x} 8 R\n", lo + (i * 64) % 4096));
    }
    t
}

#[test]
fn hostile_extents_replay_under_every_technique() {
    let dir = std::env::temp_dir().join(format!("cachescope-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        // A zero-size block at a live block's base must not evict it.
        (
            "evict",
            text_trace(
                "M 40000000 4096 buf\nM 40000000 0 ghost\n",
                0x4000_0000,
                20_000,
            ),
        ),
        (
            "overlap",
            text_trace("O 10000000 4096 a\nO 10000800 4096 b\n", 0x1000_0000, 2_000),
        ),
        (
            "zero",
            text_trace("O 10000000 0 z\nO 10001000 4096 a\n", 0x1000_0000, 2_000),
        ),
    ];
    for (name, trace) in cases {
        let path = dir.join(format!("{name}.trace"));
        std::fs::write(&path, trace).unwrap();
        for technique in ["sampling:50", "search"] {
            let out = Command::new(env!("CARGO_BIN_EXE_cachescope"))
                .arg("-")
                .arg("--replay")
                .arg(&path)
                .args(["--technique", technique])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{name}/{technique}: {stderr}");
            if name == "evict" {
                let stdout = String::from_utf8_lossy(&out.stdout);
                assert!(stdout.contains("buf "), "{name}/{technique}: {stdout}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

//! The `cachescope` binary refuses technique specs the PMU cannot run
//! with a typed diagnostic and exit code 2, instead of panicking.

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

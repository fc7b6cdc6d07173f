//! `vl-bench` refuses an argument it does not know: a mistyped flag
//! prints the usage and exits 2 before any figure runs, rather than
//! running the default workload under a flag that was never read.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_vl-bench"))
        .args(args)
        .output()
        .expect("vl-bench runs")
}

#[test]
fn a_mistyped_flag_exits_2_before_any_simulation() {
    for args in [&["--preset=paper"][..], &["--presett", "paper"], &["fig10"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown argument"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: vl-bench"), "{args:?}: {stderr}");
    }
}

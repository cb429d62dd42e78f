//! The `experiments` command line: a section name it does not know must fail
//! loudly instead of printing nothing and exiting 0.

use std::process::Command;

#[test]
fn unknown_section_exits_2_and_lists_the_valid_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["bench_serve", "--check"])
        .output()
        .expect("spawn experiments");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "ran something: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for name in ["t1", "f1", "f11"] {
        assert!(stderr.contains(name), "valid names missing: {stderr}");
    }
}

//! The CI gate, tested as a gate: `experiments lint` must re-prove every
//! synthesized table sound, certify the hand tables' minimality gaps,
//! scan the sources for nondeterminism, write the JSON gap report and
//! exit zero —
//! and exit non-zero when an unsound table is injected
//! (`--demo-unsound`). The registry's own command-line contract is gated
//! the same way: an unknown experiment name or a flag the named
//! experiment does not accept (the retired `--synth` among them) fails
//! loudly instead of being ignored.

use std::process::Command;

#[test]
fn lint_passes_on_shipped_tables() {
    let json = std::env::temp_dir().join("lint_gate_synth_gap.json");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["lint", &format!("--json={}", json.display())])
        .output()
        .expect("run experiments lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "lint failed:\n{stdout}");
    assert!(stdout.contains("lint: clean"), "{stdout}");
    // Every generated table re-proves sound from scratch.
    for adt in ["bank", "queue", "set", "semiqueue", "map", "escrow"] {
        assert!(
            stdout.contains(&format!("synthesized `{adt}` table")),
            "{stdout}"
        );
    }
    // The minimality report certifies the bank hand table and exposes the
    // paper's lost-concurrency showcase on the borrowed semiqueue table.
    let bank_gap = stdout
        .lines()
        .find(|l| l.contains("vs synthesized `bank`"))
        .expect("bank gap line");
    assert!(
        bank_gap.ends_with("minimal") && !bank_gap.contains("NOT minimal"),
        "{bank_gap}"
    );
    assert!(
        stdout.contains("hand table rejects (enq(1), enq(2))"),
        "{stdout}"
    );
    // The gap-report artifact exists and round-trips as JSON.
    let text = std::fs::read_to_string(&json).expect("gap report written");
    assert!(text.contains("\"tables\""), "{text}");
    assert!(text.contains("\"over_conservative\""), "{text}");
    assert!(text.contains("escrow"), "{text}");
    std::fs::remove_file(&json).ok();
}

#[test]
fn lint_fails_on_a_corrupted_table() {
    let json = std::env::temp_dir().join("lint_gate_synth_demo.json");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "lint",
            "--demo-unsound",
            &format!("--json={}", json.display()),
        ])
        .output()
        .expect("run experiments lint --demo-unsound");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "corrupted generated table was not rejected:\n{stdout}"
    );
    // The independent verifier catches the corruption in the generated
    // bank table, with a forward-commutativity counterexample.
    assert!(stdout.contains("CORRUPTED: withdraw/withdraw"), "{stdout}");
    assert!(stdout.contains("ERROR unsound entry"), "{stdout}");
    assert!(
        stdout.contains("admitted pair does not forward-commute"),
        "{stdout}"
    );
    std::fs::remove_file(&json).ok();
}

#[test]
fn unknown_experiment_names_fail_and_list_the_valid_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("nosuch")
        .output()
        .expect("run experiments nosuch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a typo looked like success");
    assert!(out.stdout.is_empty(), "nothing may run");
    assert!(stderr.contains("unknown experiment `nosuch`"), "{stderr}");
    for name in ["e1", "e5", "e16", "a1", "v1", "lint"] {
        assert!(
            stderr.lines().any(|l| l.trim_start().starts_with(name)),
            "usage does not list `{name}`:\n{stderr}"
        );
    }
}

#[test]
fn a_named_experiment_prints_its_header_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("e5")
        .output()
        .expect("run experiments e5");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.starts_with("== E5: "), "{stdout}");
    assert_eq!(
        stdout.matches("\n== ").count(),
        0,
        "only e5 may run:\n{stdout}"
    );
}

#[test]
fn a_flag_the_experiment_does_not_accept_is_rejected() {
    // `--synth` was `lint`'s switch for the synthesis gate until the gate
    // became all of `lint`; it is now as unknown as any other flag.
    for (name, flag) in [("e1", "--replay=1"), ("lint", "--synth")] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([name, flag])
            .output()
            .expect("run experiments with a misplaced flag");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "a misplaced flag was ignored");
        assert!(out.stdout.is_empty(), "nothing may run");
        assert!(
            stderr.contains(&format!("`{name}` does not accept `{flag}`")),
            "{stderr}"
        );
        assert!(stderr.contains("usage: experiments"), "{stderr}");
    }
}

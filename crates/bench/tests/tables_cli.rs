//! End-to-end runs of the `tables` binary, the harness behind every
//! EXPERIMENTS.md row.

use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("tables binary runs")
}

/// The experiments covering the paper's tables and figure-level claims run
/// to completion and print their headers in the binary's fixed order.
#[test]
fn paper_experiments_print_their_headers_in_order() {
    let out = tables(&["table1", "table2", "travel", "gadget", "vass", "cells"]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "tables exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let headers: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.strip_prefix("== "))
        .filter_map(|line| line.split(':').next())
        .collect();
    assert_eq!(
        headers,
        ["EXP-T1", "EXP-T2", "EXP-F1", "EXP-F2", "EXP-F3", "EXP-F4"],
        "{stdout}"
    );
}

/// An unknown experiment name is an error that lists every accepted name.
/// The binary takes no options (it prints rows only), so the old JSON
/// writer's flag is rejected like any other unknown name.
#[test]
fn unknown_experiment_exits_2_with_the_accepted_list() {
    let cases: [(&[&str], &str); 2] = [
        (&["no-such-experiment"], "no-such-experiment"),
        (&["--json", "ci", "table1"], "--json"),
    ];
    for (args, named) in cases {
        let out = tables(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
        assert!(
            stderr.contains(&format!("unknown experiment name(s): {named}")),
            "{stderr}"
        );
        assert!(
            stderr.contains(
                "accepted names: table1, table2, travel, witness, gadget, vass, cells, \
                 analyze, projection, fuzz\n"
            ),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

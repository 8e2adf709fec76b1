//! The suite's stdout, pinned: `aqua-repro all` at the default flags
//! (seed 42) must print exactly `golden/all.txt`.
//!
//! The test builds the same bytes in-process through `run_suite`, as the
//! binary does. A debug build prints what a release build prints, so this
//! tier-1 test pins every table of the suite. To re-bless after a change
//! that is meant to move a table, run
//!
//! ```text
//! cargo run --release -p aqua-bench --bin aqua-repro -- all > golden/all.txt
//! ```
//!
//! and list each moved line, with its cause, in CHANGES.md. The
//! two long runs outside `all` (`fig15_17`, `tab_a2`) are pinned the same
//! way by a release step of `ci.sh`.

use aqua_bench::runner::{run_suite, ReproArgs, EXPERIMENTS};

/// The first line where `actual` and `expected` differ, 1-based, with both
/// versions of it (`None` past the end of a side); `None` if they match.
fn first_difference<'a>(
    actual: &'a str,
    expected: &'a str,
) -> Option<(usize, Option<&'a str>, Option<&'a str>)> {
    let (mut a, mut e) = (actual.lines(), expected.lines());
    (1..)
        .map(|line| (line, a.next(), e.next()))
        .take_while(|(_, got, want)| got.is_some() || want.is_some())
        .find(|(_, got, want)| got != want)
}

#[test]
fn all_matches_its_golden_file() {
    let expected = include_str!("../golden/all.txt");
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let outcome = run_suite(&names, &ReproArgs::default(), jobs, true, false).unwrap();
    if let Some((line, got, want)) = first_difference(&outcome.output, expected) {
        panic!(
            "`aqua-repro all` differs from golden/all.txt at line {line}:\n  \
             golden: {want:?}\n  now:    {got:?}\n\
             (re-bless with `aqua-repro all > golden/all.txt` only if the change \
             means to move it)"
        );
    }
    // Lines match; the bytes must too (a trailing newline, say).
    assert_eq!(
        outcome.output, expected,
        "golden/all.txt differs in line endings"
    );
}

#[test]
fn first_difference_names_the_line() {
    assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
    assert_eq!(
        first_difference("a\nx\nc", "a\nb\nc"),
        Some((2, Some("x"), Some("b")))
    );
    assert_eq!(
        first_difference("a\n", "a\nb\n"),
        Some((2, None, Some("b")))
    );
}

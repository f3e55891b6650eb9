//! DESIGN.md's module map must match the tree: every name it lists
//! exists, and every crate and every `crates/*/src/**/*.rs` file is
//! listed. README's event list must name exactly the event table's tags.
//!
//! Map format (the fenced block under "## 6. Module map"): a line that
//! starts in column 0 names a directory and then files in it; an indented
//! line continues the previous directory; `{a,b}` in a name lists several
//! files; text after `#` is a description.

use std::collections::BTreeSet;
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Every directory and file the module map names, relative to the root.
fn module_map() -> BTreeSet<String> {
    let design = std::fs::read_to_string(Path::new(ROOT).join("DESIGN.md")).unwrap();
    let section = design.split("## 6. Module map").nth(1).unwrap();
    let block = section.split("```").nth(1).expect("a fenced module map");
    let (mut names, mut dir) = (BTreeSet::new(), String::new());
    for line in block.lines().skip(1) {
        let mut words = line.split('#').next().unwrap().split_whitespace();
        if !line.starts_with(' ') {
            dir = words.next().expect("a row starts with a directory").into();
            assert!(dir.ends_with('/'), "not a directory: {line:?}");
            names.insert(dir.clone());
        }
        for word in words {
            let (head, rest) = word.split_once('{').unwrap_or((word, "}"));
            let (alts, tail) = rest.split_once('}').unwrap();
            for alt in alts.split(',') {
                names.insert(format!("{dir}{head}{alt}{tail}"));
            }
        }
    }
    names
}

fn rust_files(dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(ROOT).unwrap();
            out.push(rel.to_string_lossy().into_owned());
        }
    }
}

#[test]
fn every_name_in_the_module_map_exists() {
    let names = module_map();
    assert!(names.len() > 50, "too few names parsed: {names:?}");
    let missing: Vec<_> = names
        .iter()
        .filter(|n| !Path::new(ROOT).join(n).exists())
        .collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md names missing paths: {missing:?}"
    );
}

#[test]
fn every_crate_and_crate_source_file_is_in_the_module_map() {
    let names = module_map();
    let mut expected = Vec::new();
    for krate in std::fs::read_dir(Path::new(ROOT).join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        let rel = src.strip_prefix(ROOT).unwrap().to_string_lossy();
        expected.push(format!("{rel}/"));
        rust_files(&src, &mut expected);
    }
    let unlisted: Vec<_> = expected.iter().filter(|p| !names.contains(*p)).collect();
    assert!(
        unlisted.is_empty(),
        "missing from DESIGN.md §6: {unlisted:?}"
    );
}

#[test]
fn readme_event_list_names_exactly_the_event_tags() {
    let readme = std::fs::read_to_string(Path::new(ROOT).join("README.md")).unwrap();
    let section = readme
        .split("### Event types")
        .nth(1)
        .expect("an event list");
    let section = section.split("\n#").next().unwrap();
    let listed: BTreeSet<&str> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .map(|row| row.split('`').next().unwrap())
        .collect();
    let kinds: BTreeSet<&str> = cachescope_obs::ObsEvent::KINDS.iter().copied().collect();
    let missing: Vec<_> = kinds.difference(&listed).collect();
    let unknown: Vec<_> = listed.difference(&kinds).collect();
    assert!(
        missing.is_empty() && unknown.is_empty(),
        "README event list: missing {missing:?}, not event tags {unknown:?}"
    );
}

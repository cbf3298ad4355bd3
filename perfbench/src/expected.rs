//! The pinned expectations in `expected.txt`: scenario file hashes and
//! `digest_platform` values per (workload, scenario, seed).

use crate::report::Report;
use std::collections::BTreeMap;

const EXPECTED: &str = include_str!("../expected.txt");

/// Parsed `expected.txt`.
pub struct Expected {
    files: BTreeMap<String, u64>,
    digests: BTreeMap<(String, String, u64), u64>,
}

fn hex(token: &str) -> Option<u64> {
    u64::from_str_radix(token.trim_start_matches("0x"), 16).ok()
}

impl Expected {
    /// Parses the embedded file; a malformed line is a benchmark bug.
    pub fn load() -> Self {
        let mut files = BTreeMap::new();
        let mut digests = BTreeMap::new();
        for line in EXPECTED.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            match tokens.as_slice() {
                ["file", path, h] => {
                    files.insert(path.to_string(), hex(h).expect("file hash is hex"));
                }
                ["digest", workload, scenario, seed, h] => {
                    digests.insert(
                        (
                            workload.to_string(),
                            scenario.to_string(),
                            seed.parse().expect("seed"),
                        ),
                        hex(h).expect("digest is hex"),
                    );
                }
                _ => panic!("expected.txt: malformed line `{line}`"),
            }
        }
        Expected { files, digests }
    }

    /// The pinned content hash of a scenario file.
    pub fn file_hash(&self, path: &str) -> Option<u64> {
        self.files.get(path).copied()
    }

    /// Checks `digest` against the pinned value, when there is one, and
    /// records it; returns false on a mismatch.
    pub fn check(
        &self,
        report: &mut Report,
        workload: &str,
        scenario: &str,
        seed: u64,
        digest: u64,
    ) -> bool {
        let key = (workload.to_string(), scenario.to_string(), seed);
        match self.digests.get(&key) {
            Some(&pinned) if pinned == digest => {
                report.digest(scenario, seed, digest, "pinned-match");
                true
            }
            Some(&pinned) => {
                report.digest(scenario, seed, digest, "PINNED-MISMATCH");
                report.fail(format!(
                    "{workload}/{scenario} seed {seed}: digest {digest:#018x}, \
                     pinned {pinned:#018x}"
                ));
                false
            }
            None => {
                report.digest(scenario, seed, digest, "unpinned");
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pinned_file_parses() {
        let expected = Expected::load();
        assert!(!expected.files.is_empty());
        assert!(!expected.digests.is_empty());
    }
}

//! **bs-lint** — a dependency-free static-analysis gate for the block
//! Schur workspace.
//!
//! The block Schur algorithm's correctness claims rest on invariants a
//! compiler cannot see: hot loops must stay allocation-free for the
//! paper's flop/storage accounting (eqs. 25–32) to mean anything,
//! library paths must not abort a production solver, and every escape
//! hatch (`unsafe`, exact float compares) must carry its justification
//! in the source. This crate machine-checks those rules with a
//! token-level pass over the workspace — pure `std`, no syn, no
//! rustc internals — so the gate runs anywhere the code builds.
//!
//! Run it with `cargo run -p bs-lint` from the workspace root (or see
//! `scripts/check.sh`, which runs it as a CI stage). Configuration
//! lives in `lint.toml`; individual findings are waived in the source
//! with `// bs-lint: allow(<lint>) -- <justification>`.

pub mod atomics;
pub mod config;
pub mod lints;
pub mod scan;
pub mod tokens;
pub mod unsafe_contract;

use config::Config;
use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use tokens::TokKind;

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Lint name (one of [`config::LINT_NAMES`], or `allow-directive`
    /// for a malformed waiver).
    pub lint: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Workspace-wide facts collected in a first pass over every file,
/// consulted by the cross-file lints: `must-use-results` (type
/// annotations travel across files) and `unsafe-contract` (SAFETY
/// claims may reference identifiers defined elsewhere, e.g. the
/// dispatch gate in `kernel/mod.rs`).
#[derive(Debug, Default)]
pub struct Registry {
    /// Type names declared `#[must_use]` anywhere in the workspace.
    pub must_use_types: BTreeSet<String>,
    /// Every identifier token in the workspace (for SAFETY-claim
    /// reference resolution).
    pub idents: BTreeSet<String>,
    /// Every `fn` name in the workspace (for `[isa ...]` dispatch-gate
    /// claims).
    pub fn_names: BTreeSet<String>,
}

impl Registry {
    /// Build the registry from scanned files.
    pub fn from_scans<'a>(scans: impl Iterator<Item = &'a scan::FileScan>) -> Registry {
        let mut r = Registry::default();
        for s in scans {
            r.must_use_types.extend(s.must_use_types.iter().cloned());
            for t in &s.toks {
                if t.kind == TokKind::Ident {
                    r.idents.insert(t.text.clone());
                }
            }
            for f in &s.fns {
                r.fn_names.insert(f.name.clone());
            }
        }
        r
    }
}

/// One `// bs-lint: allow(...)` waiver, as surfaced by the `--waivers`
/// report.
#[derive(Clone, Debug)]
pub struct Waiver {
    pub file: String,
    pub line: u32,
    pub lint: String,
    /// `allow-file(...)` form.
    pub file_wide: bool,
    pub justification: String,
}

/// Collect every waiver in the file set, plus diagnostics for the ones
/// that fail the report's honesty rules: malformed directives (which
/// includes empty justifications) and justifications duplicated
/// verbatim across sites — a copy-pasted excuse says nothing about the
/// new site.
pub fn collect_waivers(files: &[(String, String)]) -> (Vec<Waiver>, Vec<Diagnostic>) {
    let mut waivers = Vec::new();
    let mut diags = Vec::new();
    for (path, src) in files {
        let s = scan::scan(tokens::tokenize(src));
        for (line, msg) in &s.malformed_directives {
            diags.push(Diagnostic {
                file: path.clone(),
                line: *line,
                lint: "allow-directive",
                message: msg.clone(),
            });
        }
        for a in &s.allows {
            waivers.push(Waiver {
                file: path.clone(),
                line: a.line,
                lint: a.lint.clone(),
                file_wide: a.lines.is_none(),
                justification: a.justification.clone(),
            });
        }
    }
    waivers.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    for (i, w) in waivers.iter().enumerate() {
        if let Some(first) = waivers[..i]
            .iter()
            .find(|p| p.justification == w.justification)
        {
            diags.push(Diagnostic {
                file: w.file.clone(),
                line: w.line,
                lint: "allow-directive",
                message: format!(
                    "justification duplicated verbatim from {}:{}; describe what makes \
                     this site safe specifically",
                    first.file, first.line
                ),
            });
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    (waivers, diags)
}

/// Lint a set of `(workspace-relative path, contents)` pairs.
///
/// Two passes: the first builds the workspace [`Registry`] (so a type
/// declared in `plan.rs` satisfies `must-use-results` for a
/// constructor in `factor.rs`, and a SAFETY claim in `blas3.rs` can
/// reference the dispatch gate in `kernel/mod.rs`); the second runs
/// the lint catalog per file.
pub fn lint_files(files: &[(String, String)], cfg: &Config) -> Vec<Diagnostic> {
    let scans: Vec<(&str, scan::FileScan)> = files
        .iter()
        .map(|(path, src)| (path.as_str(), scan::scan(tokens::tokenize(src))))
        .collect();
    let registry = Registry::from_scans(scans.iter().map(|(_, s)| s));
    let mut out = Vec::new();
    for (path, s) in &scans {
        out.extend(lints::lint_file(path, s, cfg, &registry));
    }
    // Manifest entries naming files that do not exist are stale.
    if cfg.enabled("hot-path-coverage") {
        for exempt in cfg.hot_path_exempt.keys() {
            if !files.iter().any(|(p, _)| p == exempt) {
                out.push(Diagnostic {
                    file: exempt.clone(),
                    line: 1,
                    lint: "hot-path-coverage",
                    message: "[hot-path-exempt] names a file that does not exist — stale \
                              manifest entry"
                        .to_string(),
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Collect the workspace source set: every `.rs` file under
/// `crates/*/src` and under the root `src/`, skipping `target/` and
/// hidden directories. Returned paths are workspace-relative with
/// forward slashes, sorted.
pub fn collect_workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut src_dirs: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let sub = entry?.path().join("src");
            if sub.is_dir() {
                src_dirs.push(sub);
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        src_dirs.push(root_src);
    }
    let mut files = Vec::new();
    for dir in src_dirs {
        collect_rs_files(&dir, &mut files)?;
    }
    let mut out = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        out.push((rel, src));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_crosses_files() {
        let cfg = Config {
            library_crates: vec!["crates/core".to_string()],
            must_use_types: vec!["Plan".to_string()],
            ..Config::default()
        };
        let files = vec![
            (
                "crates/core/src/a.rs".to_string(),
                "#[must_use] pub struct Plan;".to_string(),
            ),
            (
                "crates/core/src/b.rs".to_string(),
                "pub fn make() -> Plan { Plan }".to_string(),
            ),
        ];
        assert!(lint_files(&files, &cfg).is_empty());
        // Without the annotation the constructor in b.rs is flagged.
        let files2 = vec![
            (
                "crates/core/src/a.rs".to_string(),
                "pub struct Plan;".to_string(),
            ),
            files[1].clone(),
        ];
        let d = lint_files(&files2, &cfg);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].lint, "must-use-results");
    }
}

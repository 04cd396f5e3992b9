//! Workspace discovery: members from the root `Cargo.toml`, crate names
//! from each member's manifest, and the `.rs` files to audit.

use std::fs;
use std::path::{Path, PathBuf};

/// One workspace crate to audit.
#[derive(Clone, Debug)]
pub struct CrateInfo {
    /// Package name from `Cargo.toml` (e.g. `seaweed-core`).
    pub name: String,
    /// Crate directory, workspace-relative (`crates/core`, or `.` for
    /// the root package).
    pub dir: PathBuf,
    /// Audited `.rs` files, workspace-relative, sorted.
    pub files: Vec<PathBuf>,
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)
                .map_err(|e| format!("{}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(format!("no workspace Cargo.toml above {}", start.display()));
        }
    }
}

/// Enumerates workspace member crates (plus the root package, if the
/// root manifest also declares `[package]`), sorted by name.
pub fn discover(root: &Path) -> Result<Vec<CrateInfo>, String> {
    let manifest_path = root.join("Cargo.toml");
    let manifest = fs::read_to_string(&manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let mut dirs: Vec<PathBuf> = Vec::new();
    for member in parse_members(&manifest)? {
        if let Some(prefix) = member.strip_suffix("/*") {
            let base = root.join(prefix);
            let entries = fs::read_dir(&base).map_err(|e| format!("{}: {e}", base.display()))?;
            for entry in entries.flatten() {
                let p = entry.path();
                if p.join("Cargo.toml").is_file() {
                    dirs.push(PathBuf::from(prefix).join(entry.file_name()));
                }
            }
        } else {
            dirs.push(PathBuf::from(member));
        }
    }
    if manifest.contains("[package]") {
        dirs.push(PathBuf::from("."));
    }
    let mut crates = Vec::new();
    for dir in dirs {
        let m = root.join(&dir).join("Cargo.toml");
        let text = fs::read_to_string(&m).map_err(|e| format!("{}: {e}", m.display()))?;
        let name = parse_package_name(&text)
            .ok_or_else(|| format!("{}: no `name = \"...\"` under [package]", m.display()))?;
        let mut files = Vec::new();
        for sub in ["src", "tests", "benches", "examples"] {
            collect_rs(root, &dir.join(sub), &mut files);
        }
        files.sort();
        crates.push(CrateInfo { name, dir, files });
    }
    crates.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(crates)
}

/// Recursively collects `.rs` files under `root/dir` (workspace-relative
/// paths), skipping `target` and `fixtures` directories — fixture
/// snippets are *supposed* to violate rules.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let abs = root.join(dir);
    let Ok(entries) = fs::read_dir(&abs) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = normalize(&dir.join(&*name));
        let p = entry.path();
        if p.is_dir() {
            if name != "target" && name != "fixtures" {
                collect_rs(root, &rel, out);
            }
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
}

/// Strips a leading `./` so root-package paths render as `src/lib.rs`.
fn normalize(p: &Path) -> PathBuf {
    p.components()
        .filter(|c| !matches!(c, std::path::Component::CurDir))
        .collect()
}

/// Extracts the `members = [...]` array (possibly spanning lines) from
/// the root manifest.
fn parse_members(manifest: &str) -> Result<Vec<String>, String> {
    let start = manifest
        .find("members")
        .ok_or("root Cargo.toml has no `members`")?;
    let open = manifest[start..]
        .find('[')
        .ok_or("`members` is not an array")?
        + start;
    let close = manifest[open..]
        .find(']')
        .ok_or("`members` array is unterminated")?
        + open;
    Ok(manifest[open + 1..close]
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect())
}

/// First `name = "..."` after `[package]`.
fn parse_package_name(manifest: &str) -> Option<String> {
    let pkg = manifest.find("[package]")?;
    for line in manifest[pkg..].lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(v) = rest.strip_prefix('=') {
                return Some(v.trim().trim_matches('"').to_string());
            }
        }
        if line.starts_with('[') && !line.starts_with("[package]") {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_globs_and_package_names() {
        let members =
            parse_members("[workspace]\nmembers = [\"crates/*\", \"tools/x\"]\nresolver = \"2\"\n")
                .unwrap();
        assert_eq!(members, vec!["crates/*", "tools/x"]);
        assert_eq!(
            parse_package_name("[package]\nname = \"seaweed-core\"\nversion = \"0.1.0\"\n"),
            Some("seaweed-core".into())
        );
        assert_eq!(parse_package_name("[workspace]\nmembers = []\n"), None);
    }
}

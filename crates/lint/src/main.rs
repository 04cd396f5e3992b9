//! CLI entry point. See the crate docs in `lib.rs`.

use std::path::PathBuf;
use std::process::ExitCode;

use seaweed_lint::{load_config, report, rules, run_workspace, workspace};

const USAGE: &str = "\
seaweed-lint — workspace determinism auditor

USAGE: cargo run -p seaweed-lint [-- OPTIONS]

OPTIONS:
  --format <human|json|sarif>   output format (default: human)
  --root <dir>            workspace root (default: discovered from cwd)
  --list-rules            print the rule catalogue and exit
  --help                  this text

Exits 0 when the tree is clean, 1 on any finding.";

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("seaweed-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let mut format = "human".to_string();
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--format" => {
                format = args.next().ok_or("--format wants a value")?;
                if format != "human" && format != "json" && format != "sarif" {
                    return Err(format!("unknown format `{format}`"));
                }
            }
            "--root" => root = Some(PathBuf::from(args.next().ok_or("--root wants a value")?)),
            "--list-rules" => {
                for (id, desc) in rules::RULES {
                    println!("{id}  {desc}");
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            workspace::find_workspace_root(&cwd)?
        }
    };
    let cfg = load_config(&root)?;
    let res = run_workspace(&root, &cfg)?;
    if format == "json" {
        print!("{}", report::render_json(&res.findings));
    } else if format == "sarif" {
        print!("{}", report::render_sarif(&res.findings));
    } else {
        for f in &res.findings {
            println!("{}", f.render());
        }
        println!(
            "seaweed-lint: {} finding(s) across {} file(s) in {} crate(s)",
            res.findings.len(),
            res.files,
            res.crates
        );
    }
    Ok(if res.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

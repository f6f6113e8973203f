//! Regenerate every figure of the paper (and the ablations).
//!
//! ```text
//! figures [FIG ...] [--runs N] [--seed S] [--quick] [--json DIR]
//!
//!   FIG     fig2 … fig12, ablations, or all (default: all)
//!   --runs  replications per point (default 20; paper uses 100)
//!   --seed  root seed (default 20040426)
//!   --quick ~10x shorter horizons, 3-point sweeps (smoke mode)
//!   --json  also write <DIR>/<fig>.json for each table
//! ```

use psd_bench::{ablations, figures, table::Table, HarnessParams};

fn main() {
    let mut params = HarnessParams::default();
    let mut wanted: Vec<String> = Vec::new();
    let mut json_dir: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--runs" => {
                params.runs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--runs needs a positive integer"));
            }
            "--seed" => {
                params.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--quick" => params.quick = true,
            "--json" => {
                json_dir = Some(args.next().unwrap_or_else(|| die("--json needs a directory")));
            }
            "--help" | "-h" => {
                println!("usage: figures [fig2..fig12|ablations|all] [--runs N] [--seed S] [--quick] [--json DIR]");
                return;
            }
            other if other.starts_with("fig") || other == "ablations" || other == "all" => {
                wanted.push(other.to_string());
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }

    let mut tables: Vec<Table> = Vec::new();
    for w in &wanted {
        match w.as_str() {
            "all" => {
                tables.extend(figures::all(&params));
                tables.extend(ablations::all(&params));
            }
            "fig2" => tables.push(figures::fig2(&params)),
            "fig3" => tables.push(figures::fig3(&params)),
            "fig4" => tables.push(figures::fig4(&params)),
            "fig5" => tables.push(figures::fig5(&params)),
            "fig6" => tables.push(figures::fig6(&params)),
            "fig7" => tables.push(figures::fig7(&params)),
            "fig8" => tables.push(figures::fig8(&params)),
            "fig9" => tables.push(figures::fig9(&params)),
            "fig10" => tables.push(figures::fig10(&params)),
            "fig11" => tables.push(figures::fig11(&params)),
            "fig12" => tables.push(figures::fig12(&params)),
            "ablations" => tables.extend(ablations::all(&params)),
            other => die(&format!("unknown figure: {other}")),
        }
    }

    for t in &tables {
        // Figs 7/8 traces can be long; summarize on stdout.
        if t.rows.len() > 60 && (t.id == "fig7" || t.id == "fig8") {
            let mut short = Table::new(&t.id, &t.title, &["time_tu", "class", "slowdown"]);
            for n in &t.notes {
                short.note(n.clone());
            }
            short.note(format!(
                "({} trace rows; first 30 shown, full set in --json output)",
                t.rows.len()
            ));
            for r in t.rows.iter().take(30) {
                short.push_row(r.clone());
            }
            println!("{}", short.render());
        } else {
            println!("{}", t.render());
        }
    }

    if let Some(dir) = json_dir {
        std::fs::create_dir_all(&dir).expect("create json output dir");
        for t in &tables {
            let path = format!("{dir}/{}.json", t.id);
            std::fs::write(&path, t.to_json()).expect("write json table");
            eprintln!("wrote {path}");
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

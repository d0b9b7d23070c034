//! Manifest → markdown summary (`fare-report summarize`).

use fare_obs::RunManifest;

/// Render one manifest as markdown tables, plus derived quantities the
//  raw counters only imply (remap-cache hit rate, mean epoch time).
pub fn to_markdown(m: &RunManifest) -> String {
    let mut out = String::new();
    out.push_str(&format!("# Run manifest: `{}`\n\n", m.run));
    out.push_str(&format!("- seed: `{}`\n", m.seed));
    out.push_str(&format!("- config: `{}`\n", m.config));
    out.push_str(&format!("- epochs recorded: {}\n\n", m.epochs.len()));

    if !m.counters.is_empty() {
        out.push_str("## Counters\n\n| counter | value |\n|---|---:|\n");
        for c in &m.counters {
            out.push_str(&format!("| `{}` | {} |\n", c.name, c.value));
        }
        out.push('\n');
        let get = |name: &str| {
            m.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        let hits = get("core.remap_cache.hits");
        let misses = get("core.remap_cache.misses");
        let lookups = hits as f64 + misses as f64;
        if lookups > 0.0 {
            out.push_str(&format!(
                "Derived: remap-cache hit rate {:.1}% ({hits} hits / {misses} misses)\n\n",
                100.0 * hits as f64 / lookups
            ));
        }
    }

    if !m.timers.is_empty() {
        out.push_str("## Timers\n\n| timer | spans | total ms | mean ms |\n|---|---:|---:|---:|\n");
        for t in &m.timers {
            let total_ms = t.total_ns as f64 / 1e6;
            out.push_str(&format!(
                "| `{}` | {} | {:.3} | {:.3} |\n",
                t.name,
                t.count,
                total_ms,
                total_ms / t.count.max(1) as f64
            ));
        }
        out.push('\n');
    }

    if !m.epochs.is_empty() {
        out.push_str(
            "## Epoch curve\n\n| epoch | loss | train acc | test acc |\n|---:|---:|---:|---:|\n",
        );
        for e in &m.epochs {
            out.push_str(&format!(
                "| {} | {:.4} | {:.3} | {:.3} |\n",
                e.epoch, e.loss, e.train_accuracy, e.test_accuracy
            ));
        }
        out.push('\n');
    }

    if !m.heatmaps.is_empty() {
        out.push_str(
            "## Heatmaps\n\n| grid | cells | sa0 | sa1 | mismatch | mvms | energy (µJ) | hottest cell (faults) |\n|---|---:|---:|---:|---:|---:|---:|---:|\n",
        );
        for g in &m.heatmaps {
            let faults = g.metric("faults").unwrap_or_default();
            let hottest = faults
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
                .map(|(i, v)| format!("#{i} ({v})"))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "| `{}` | {} | {} | {} | {} | {} | {:.3} | {} |\n",
                g.name,
                g.cells(),
                g.sa0.iter().sum::<u64>(),
                g.sa1.iter().sum::<u64>(),
                g.mismatch.iter().sum::<u64>(),
                g.mvms.iter().sum::<u64>(),
                g.energy_nj.iter().sum::<f64>() / 1e3,
                hottest
            ));
        }
        out.push('\n');
    }

    if !m.bench.is_empty() {
        out.push_str("## Bench\n\n| name | value |\n|---|---:|\n");
        for b in &m.bench {
            out.push_str(&format!("| `{}` | {:.6} |\n", b.name, b.value));
        }
        out.push('\n');
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fare_obs::{CounterEntry, EpochRecord, HeatmapGrid, TimerEntry};

    #[test]
    fn summary_covers_every_section_and_derives_hit_rate() {
        let mut g = HeatmapGrid::zeros("adjacency_crossbars", 2);
        g.sa0 = vec![1, 0];
        g.sa1 = vec![0, 3];
        let m = RunManifest {
            run: "demo".into(),
            seed: 7,
            config: "{\"epochs\":5}".into(),
            counters: vec![
                CounterEntry {
                    name: "core.remap_cache.hits".into(),
                    value: 30,
                },
                CounterEntry {
                    name: "core.remap_cache.misses".into(),
                    value: 10,
                },
            ],
            timers: vec![TimerEntry {
                name: "core.trainer.run".into(),
                count: 1,
                total_ns: 5_000_000,
            }],
            epochs: vec![EpochRecord {
                epoch: 0,
                loss: 1.25,
                train_accuracy: 0.5,
                test_accuracy: 0.4,
            }],
            heatmaps: vec![g],
            bench: vec![],
        };
        let text = to_markdown(&m);
        assert!(text.contains("# Run manifest: `demo`"));
        assert!(text.contains("## Counters"));
        assert!(text.contains("hit rate 75.0%"));
        assert!(text.contains("## Timers"));
        assert!(text.contains("## Epoch curve"));
        assert!(text.contains("## Heatmaps"));
        assert!(text.contains("#1 (3)"), "hottest cell is index 1: {text}");
        assert_eq!(text, to_markdown(&m), "deterministic rendering");
    }
}

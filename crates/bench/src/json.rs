//! Machine-readable benchmark output: collects every measured point and
//! writes them as one JSON document, so the performance trajectory of the
//! repository can be tracked run over run (`figures --json BENCH_lists.json`).
//!
//! Hand-rolled serialization (strings escaped by `nvtraverse_obs`), so the
//! crate stays dependency-free.

use nvtraverse_obs::json_escape as escape;
use std::path::PathBuf;
use std::sync::Mutex;

/// One measured point of one figure.
#[derive(Debug, Clone)]
pub struct Point {
    /// Figure id (`fig5a`, …, `abl1`).
    pub figure: String,
    /// Series name within the figure (`nvt`, `izr`, …).
    pub series: String,
    /// X-axis value as printed (thread count, range, update %…).
    pub x: String,
    /// Name of the metric (`mops`, `flushes_per_op`, …).
    pub metric: String,
    /// The measured value.
    pub value: f64,
}

static SINK: Mutex<Option<(PathBuf, Vec<Point>)>> = Mutex::new(None);

/// Starts collecting points, to be written to `path` by [`flush`].
pub fn enable(path: PathBuf) {
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = Some((path, Vec::new()));
}

/// Records one point (no-op unless [`enable`]d).
pub fn record(figure: &str, series: &str, x: &str, metric: &str, value: f64) {
    if let Some((_, points)) = SINK.lock().unwrap_or_else(|e| e.into_inner()).as_mut() {
        points.push(Point {
            figure: figure.to_string(),
            series: series.to_string(),
            x: x.to_string(),
            metric: metric.to_string(),
            value,
        });
    }
}

/// Writes the collected points to the enabled path and stops collecting.
///
/// Returns the number of points written, or `None` when not enabled.
pub fn flush(mode: &str) -> Option<usize> {
    let (path, points) = SINK.lock().unwrap_or_else(|e| e.into_inner()).take()?;
    let mut doc = String::new();
    doc.push_str("{\n");
    doc.push_str("  \"bench\": \"nvtraverse-figures\",\n");
    doc.push_str(&format!("  \"mode\": \"{}\",\n", escape(mode)));
    doc.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let val = if p.value.is_finite() {
            format!("{}", p.value)
        } else {
            "null".to_string()
        };
        doc.push_str(&format!(
            "    {{\"figure\": \"{}\", \"series\": \"{}\", \"x\": \"{}\", \"metric\": \"{}\", \"value\": {}}}{}\n",
            escape(&p.figure),
            escape(&p.series),
            escape(&p.x),
            escape(&p.metric),
            val,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    doc.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("warning: could not write {}: {e}", path.display());
        return None;
    }
    println!("wrote {} benchmark points to {}", points.len(), path.display());
    Some(points.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_noop_when_disabled_and_collects_when_enabled() {
        // Disabled: nothing breaks.
        record("figX", "s", "1", "mops", 1.0);
        let path = std::env::temp_dir().join(format!("nvt-json-{}.json", std::process::id()));
        enable(path.clone());
        record("figX", "nvt", "4", "mops", 2.5);
        record("figX", "quoted\"name", "8", "mops", f64::NAN);
        let n = flush("Quick").unwrap();
        assert_eq!(n, 2);
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.contains("\"figure\": \"figX\""));
        assert!(doc.contains("\"value\": 2.5"));
        assert!(doc.contains("quoted\\\"name"));
        assert!(doc.contains("\"value\": null"), "NaN must become null");
        // Disabled again after flush.
        assert!(flush("Quick").is_none());
        std::fs::remove_file(&path).unwrap();
    }
}

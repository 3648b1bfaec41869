//! Result rows, console tables, CSV emission and bench records.

use serde::{Deserialize, Serialize, Value};
use std::io::Write;
use std::path::Path;

/// One measured cell of a figure/table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Figure/panel id (e.g. `"fig07a"`).
    pub panel: String,
    /// Fault setting label (e.g. `"30% mislabelling"`).
    pub setting: String,
    /// Technique label (e.g. `"ReMIX"`).
    pub technique: String,
    /// Mean balanced accuracy.
    pub ba: f32,
    /// Mean F1 (0 for non-binary datasets).
    pub f1: f32,
    /// Standard deviation of BA across seeds.
    pub std: f32,
}

/// Prints rows as an aligned console table, grouped by setting.
pub fn print_table(rows: &[Row]) {
    if rows.is_empty() {
        println!("(no rows)");
        return;
    }
    println!(
        "{:<8} {:<22} {:<10} {:>7} {:>7} {:>7}",
        "panel", "setting", "technique", "BA", "F1", "std"
    );
    let mut last_setting = String::new();
    for r in rows {
        if r.setting != last_setting && !last_setting.is_empty() {
            println!("{}", "-".repeat(66));
        }
        last_setting = r.setting.clone();
        println!(
            "{:<8} {:<22} {:<10} {:>7.3} {:>7.3} {:>7.3}",
            r.panel, r.setting, r.technique, r.ba, r.f1, r.std
        );
    }
}

/// Writes rows as CSV under `results/`, creating the directory if needed.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn write_csv(path: impl AsRef<Path>, rows: &[Row]) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "panel,setting,technique,ba,f1,std")?;
    for r in rows {
        writeln!(
            f,
            "{},{},{},{:.4},{:.4},{:.4}",
            r.panel, r.setting, r.technique, r.ba, r.f1, r.std
        )?;
    }
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Prints serialized rows as an aligned console table, one column per key of
/// the first row.
pub fn print_rows<T: Serialize>(rows: &[T]) {
    let rows: Vec<Value> = rows.iter().map(Serialize::to_value).collect();
    let Some(header) = rows.first().and_then(Value::as_object) else {
        return;
    };
    let mut table = vec![header.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>()];
    for row in rows.iter().filter_map(Value::as_object) {
        table.push(
            row.iter()
                .map(|(_, v)| match v {
                    Value::Str(s) => s.clone(),
                    v => serde_json::to_string(v).expect("shim serialization cannot fail"),
                })
                .collect(),
        );
    }
    for row in &table {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(c, cell)| {
                let width = table.iter().map(|r| r[c].len()).max().unwrap_or(0);
                format!("{cell:>width$}")
            })
            .collect();
        println!("{}", cells.join("  "));
    }
}

/// Writes a bench record as pretty JSON to `results/{file}` — the one writer
/// of every record `bench_check` gates.
///
/// # Panics
///
/// Panics when `results/` cannot be created or written: a bench that cannot
/// leave its record must not look like it passed.
pub fn write_record<T: Serialize>(file: &str, record: &T) {
    let text = serde_json::to_string_pretty(record).expect("shim serialization cannot fail");
    let path = Path::new("results").join(file);
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write(&path, text + "\n").unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("Record written to {}", path.display());
}

/// `value` rounded to `places` decimals, so a record shows the precision
/// its measurement carries.
pub fn round(value: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (value * scale).round() / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip_shape() {
        let rows = vec![Row {
            panel: "t".into(),
            setting: "golden".into(),
            technique: "UMaj".into(),
            ba: 0.9,
            f1: 0.0,
            std: 0.01,
        }];
        let path = std::env::temp_dir().join("remix_report_test.csv");
        write_csv(&path, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("panel,setting"));
        assert!(text.contains("UMaj"));
        std::fs::remove_file(path).ok();
    }
}

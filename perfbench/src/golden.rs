//! The output check: each run's metrics fingerprint against the committed
//! golden file, read in place.

use jtp_netsim::trace::Fnv64;
use jtp_netsim::Metrics;
use std::collections::BTreeMap;
use std::path::Path;

/// The committed golden digests, relative to the repository root.
pub const DIGESTS: &str = "crates/netsim/tests/golden/digests.txt";

/// FNV-1a over the JSON encoding of `m`, exactly as the golden digest
/// computes its `metrics=` field.
pub fn metrics_fnv(m: &Metrics) -> u64 {
    let json = serde_json::to_string(m).expect("metrics serialise");
    let mut fnv = Fnv64::default();
    fnv.write(json.as_bytes());
    fnv.finish()
}

/// Parse the golden file's data lines into `scenario:transport` ->
/// `metrics=` value. Untagged lines are the JTP runs.
pub fn parse(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let mut fields = line.split_whitespace();
        let name = fields.next().ok_or("empty golden line")?;
        let key = if name.contains(':') {
            name.to_string()
        } else {
            format!("{name}:jtp")
        };
        let hex = fields
            .find_map(|f| f.strip_prefix("metrics="))
            .ok_or_else(|| format!("golden line without metrics=: {line}"))?;
        let fnv = u64::from_str_radix(hex, 16)
            .map_err(|e| format!("bad metrics= value in golden line {line:?}: {e}"))?;
        if out.insert(key.clone(), fnv).is_some() {
            return Err(format!("duplicate golden line for {key}"));
        }
    }
    Ok(out)
}

/// Read and parse the golden file under the repository root `root`.
pub fn load(root: &Path) -> Result<BTreeMap<String, u64>, String> {
    let path = root.join(DIGESTS);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse(&text)
}

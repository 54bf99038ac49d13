//! The pinned per-job results every run is checked against.
//!
//! One line per job: `job <id>` followed by `key=value` fields. `#`
//! starts a comment; blank lines are ignored. Written by the `pin`
//! subcommand, read by every workload run.

use std::collections::BTreeMap;
use std::fmt;

/// What one job must produce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    /// Seeds stored.
    pub seeds: u64,
    /// Test data volume in bits.
    pub tdv: u64,
    /// Test sequence length of the State Skip scheme, in vectors.
    pub tsl: u64,
    /// The report digest (encoding, placements and TSL accounting).
    pub digest: u64,
    /// Useful segments the segment stage selected.
    pub useful: u64,
    /// Mean embeddings per cube found by the embedding stage.
    pub embeddings: f64,
    /// The server cache's size estimate for the job's artifacts.
    pub bytes: u64,
}

impl fmt::Display for Expected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seeds={} tdv={} tsl={} digest={:016x} useful={} embeddings={} bytes={}",
            self.seeds, self.tdv, self.tsl, self.digest, self.useful, self.embeddings, self.bytes
        )
    }
}

/// Parses an expected-values file into a map from job id.
///
/// # Errors
///
/// A message naming the line for a malformed line, an unknown or
/// missing field, a bad number, or a job listed twice.
pub fn parse(text: &str) -> Result<BTreeMap<String, Expected>, String> {
    let mut jobs = BTreeMap::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("line {}: {msg}", i + 1);
        let mut words = line.split_whitespace();
        if words.next() != Some("job") {
            return Err(at("expected `job <id> key=value...`".into()));
        }
        let id = words.next().ok_or_else(|| at("missing job id".into()))?;
        let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
        for word in words {
            let (key, value) = word
                .split_once('=')
                .ok_or_else(|| at(format!("`{word}` is not key=value")))?;
            if fields.insert(key, value).is_some() {
                return Err(at(format!("field `{key}` given twice")));
            }
        }
        let mut take = |key: &str| {
            fields
                .remove(key)
                .ok_or_else(|| at(format!("missing field `{key}`")))
        };
        let int = |key: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|e| format!("line {}: `{key}`: {e}", i + 1))
        };
        let expected = Expected {
            seeds: int("seeds", take("seeds")?)?,
            tdv: int("tdv", take("tdv")?)?,
            tsl: int("tsl", take("tsl")?)?,
            digest: u64::from_str_radix(take("digest")?, 16)
                .map_err(|e| at(format!("`digest`: {e}")))?,
            useful: int("useful", take("useful")?)?,
            embeddings: take("embeddings")?
                .parse()
                .map_err(|e| at(format!("`embeddings`: {e}")))?,
            bytes: int("bytes", take("bytes")?)?,
        };
        if let Some(key) = fields.keys().next() {
            return Err(at(format!("unknown field `{key}`")));
        }
        if jobs.insert(id.to_string(), expected).is_some() {
            return Err(at(format!("job `{id}` listed twice")));
        }
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "job s9234@0.1/L50/S5/k20 seeds=23 tdv=1012 tsl=180 \
                        digest=00000000deadbeef useful=40 embeddings=1.5 bytes=99000";

    #[test]
    fn parses_a_line_and_round_trips_display() {
        let text = format!("# pinned\n\n{LINE}  # trailing comment\n");
        let jobs = parse(&text).unwrap();
        let e = jobs["s9234@0.1/L50/S5/k20"];
        assert_eq!((e.seeds, e.tdv, e.tsl), (23, 1012, 180));
        assert_eq!(e.digest, 0xdead_beef);
        assert_eq!(e.embeddings, 1.5);
        let again = parse(&format!("job x {e}")).unwrap();
        assert_eq!(again["x"], e);
    }

    #[test]
    fn rejects_malformed_input_with_its_line() {
        let err = |text: &str| parse(text).unwrap_err();
        assert!(err("\nnope x").starts_with("line 2:"));
        assert!(err("job").contains("missing job id"));
        assert!(err(&LINE.replace("tsl=180 ", "")).contains("missing field `tsl`"));
        assert!(err(&format!("{LINE} extra=1")).contains("unknown field `extra`"));
        assert!(err(&format!("{LINE} seeds=1")).contains("given twice"));
        assert!(err(&LINE.replace("tdv=1012", "tdv=-1")).contains("`tdv`"));
        assert!(err(&LINE.replace("deadbeef", "xyz")).contains("`digest`"));
        assert!(err(&format!("{LINE}\n{LINE}")).contains("listed twice"));
        assert!(err(&LINE.replace("tsl=180", "tsl")).contains("not key=value"));
    }

    #[test]
    fn empty_file_is_empty_map() {
        assert!(parse("# nothing\n\n").unwrap().is_empty());
    }
}

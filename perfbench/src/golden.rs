//! Golden outputs: one line per catalog op, `<key> <canonical output>`,
//! recorded with `--record` and embedded in the binary. An op whose
//! canonical output differs from its golden line (or has none) counts as
//! an error.

use std::collections::BTreeMap;

#[derive(Debug, Default)]
pub struct Goldens(BTreeMap<String, String>);

impl Goldens {
    /// Parses golden text; blank lines and `#` comments are skipped.
    pub fn parse(text: &str) -> Result<Goldens, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, output) = line
                .split_once(' ')
                .ok_or_else(|| format!("golden line {} has no output: {line}", n + 1))?;
            if map
                .insert(key.to_string(), output.trim().to_string())
                .is_some()
            {
                return Err(format!("golden key {key} appears twice"));
            }
        }
        Ok(Goldens(map))
    }

    /// Whether `output` is exactly the recorded golden output of `key`.
    pub fn matches(&self, key: &str, output: &str) -> bool {
        self.0.get(key).is_some_and(|golden| golden == output)
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// The line `--record` prints for one op.
pub fn line(key: &str, output: &str) -> String {
    format!("{key} {output}")
}

/// Exact, locale-free rendering of an `f64` for golden outputs.
pub fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_lines_parse_back() {
        let text = format!(
            "# comment\n{}\n\n{}\n",
            line("join/0/greedy", "strategy=1@1,4@1 u=3ff0000000000000"),
            line("pay/1/3", "ok=990 no_path=10")
        );
        let goldens = Goldens::parse(&text).unwrap();
        assert_eq!(goldens.len(), 2);
        assert!(goldens.matches("join/0/greedy", "strategy=1@1,4@1 u=3ff0000000000000"));
        assert!(goldens.matches("pay/1/3", "ok=990 no_path=10"));
    }

    #[test]
    fn perturbed_or_missing_outputs_do_not_match() {
        let goldens = Goldens::parse("certify/star20 eq=true devs=[] candidates=20971500").unwrap();
        assert!(!goldens.matches("certify/star20", "eq=true devs=[] candidates=20971501"));
        assert!(!goldens.matches("certify/path12", "eq=true devs=[] candidates=20971500"));
    }

    #[test]
    fn duplicate_and_malformed_lines_are_rejected() {
        assert!(Goldens::parse("a x\na y").is_err());
        assert!(Goldens::parse("lonely").is_err());
    }

    #[test]
    fn bits_are_exact() {
        assert_eq!(bits(1.0), "3ff0000000000000");
        assert_ne!(bits(0.1 + 0.2), bits(0.3));
    }
}

//! Seeded input generators. Every input the program receives — CLI
//! arguments, the dense run-config file, serve request lines — comes
//! from here, derived from the workload seed alone: the same seed
//! gives byte-identical inputs, another seed gives different ones.
//! Inputs are never filtered by whether the program accepts them; a
//! rejection counts as a failure.

use claire_model::zoo;

/// SplitMix64: small, fast and good enough to spread seeds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`label`) under the workload seed, so
    /// adding a stream never shifts the values of another.
    pub fn stream(seed: u64, label: &str) -> Self {
        // FNV-1a over the label, mixed into the seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[lo, hi)`.
    pub fn unit(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.next_u64() as usize % items.len()]
    }
}

/// The 19 zoo models the paper flow runs (13 training + 6 test), in
/// zoo order.
pub fn zoo_names() -> Vec<String> {
    zoo::training_set()
        .iter()
        .chain(zoo::test_set().iter())
        .map(|m| m.name().to_owned())
        .collect()
}

/// The seeded order of zoo models for the `custom <model> --json`
/// invocations of the CLI flow surface.
pub fn custom_models(seed: u64, count: usize) -> Vec<String> {
    let names = zoo_names();
    let mut rng = Rng::stream(seed, "custom-models");
    (0..count).map(|_| rng.pick(&names).clone()).collect()
}

/// A seeded dense run-config: the 10⁴-point stress space (ten values
/// per axis, as `DseSpace::dense(10)`) with its axes and the three
/// constraint values perturbed. Returns the JSON text and the number
/// of points.
pub fn dense_config(seed: u64) -> (String, usize) {
    let mut rng = Rng::stream(seed, "dense-space");
    // Per axis: the ten `DseSpace::dense` values in a seeded order,
    // the smallest raised by a seeded offset of up to half a step (so
    // the first step shrinks). Only the low end moves: those points
    // are area-feasible whatever the offset, so the share of feasible
    // points — and the work per point — stays put across seeds. Moving
    // the top of an axis by one unit shifted it by about ten percent.
    let mut axis = |step: u64| -> Vec<u64> {
        let mut values: Vec<u64> = (1..=10).map(|i| i * step).collect();
        values[0] += rng.range(0, step / 2);
        for i in (1..values.len()).rev() {
            values.swap(i, rng.range(0, i as u64) as usize);
        }
        values
    };
    let sa_sizes = axis(12);
    let n_sas = axis(8);
    let n_acts = axis(4);
    let n_pools = axis(4);
    let points = sa_sizes.len() * n_sas.len() * n_acts.len() * n_pools.len();
    let area = rng.unit(99.5, 100.5);
    let power = rng.unit(0.995, 1.005);
    let slack = rng.unit(0.4975, 0.5025);
    let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    let text = format!(
        "{{\n  \"space\": {{\"sa_sizes\": [{}], \"n_sas\": [{}], \"n_acts\": [{}], \"n_pools\": [{}], \"threads\": null}},\n  \
         \"constraints\": {{\"chiplet_area_limit_mm2\": {area}, \"power_density_limit_w_per_mm2\": {power}, \"latency_slack\": {slack}}},\n  \
         \"nre\": {{\"mask_set\": 1.5, \"design_per_mm2\": 0.02, \"verification_per_mm2\": 0.01, \"ip_licensing\": 0.3, \"integration_per_chiplet\": 0.2, \"package_base\": 0.05}},\n  \
         \"jaccard_threshold\": 0.6,\n  \"louvain_resolution\": 1.0\n}}\n",
        list(&sa_sizes),
        list(&n_sas),
        list(&n_acts),
        list(&n_pools),
    );
    (text, points)
}

/// Which serve traffic a stream carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Zoo models and three fixed constraint values: memo tiers answer
    /// nearly every request.
    Hot,
    /// A unique seeded printout per custom/assign request and a seeded
    /// constraint per what_if: memo tiers take inserts, not hits.
    Novel,
}

/// A deterministic stream of serve request bodies (without `id`,
/// which the load generator adds per send).
pub struct RequestStream {
    traffic: Traffic,
    rng: Rng,
    names: Vec<String>,
    /// The three hot what_if constraint values (area limits, mm²).
    hot_limits: [f64; 3],
    next: u64,
    /// Keeps printouts unique across streams of one run.
    tag: u64,
}

impl RequestStream {
    /// The stream for one load phase: `phase` names its random stream
    /// and `tag` (distinct per phase) keeps its printouts unique
    /// across the phases of a run; all phases share the hot pool.
    pub fn new(seed: u64, traffic: Traffic, phase: &str, tag: u64) -> Self {
        let mut pool = Rng::stream(seed, "serve-hot-pool");
        let hot_limits = [
            pool.unit(60.0, 70.0),
            pool.unit(80.0, 90.0),
            pool.unit(100.0, 110.0),
        ];
        RequestStream {
            traffic,
            rng: Rng::stream(seed, &format!("serve-{phase}")),
            names: zoo_names(),
            hot_limits,
            next: 0,
            tag,
        }
    }

    /// Warm-up requests: every zoo model through each op (what_if at
    /// each hot constraint value).
    pub fn warmup(&self) -> Vec<String> {
        let mut out = Vec::new();
        for name in &self.names {
            out.push(zoo_request("custom", name));
            out.push(zoo_request("assign", name));
            for &limit in &self.hot_limits {
                out.push(what_if_request(name, &[("chiplet_area_limit_mm2", limit)]));
            }
        }
        out
    }

    /// The next request body.
    pub fn next_request(&mut self) -> String {
        let i = self.next;
        self.next += 1;
        let op = match self.rng.range(0, 9) {
            0..=3 => "custom",
            4..=6 => "assign",
            _ => "what_if",
        };
        let name = self.rng.pick(&self.names).clone();
        match (self.traffic, op) {
            (Traffic::Hot, "what_if") => {
                let limit = *self.rng.pick(&self.hot_limits);
                what_if_request(&name, &[("chiplet_area_limit_mm2", limit)])
            }
            (Traffic::Hot, _) => zoo_request(op, &name),
            (Traffic::Novel, "what_if") => {
                let area = self.rng.unit(55.0, 110.0);
                let power = self.rng.unit(0.6, 1.2);
                let slack = self.rng.unit(0.3, 0.7);
                what_if_request(
                    &name,
                    &[
                        ("chiplet_area_limit_mm2", area),
                        ("power_density_limit_w_per_mm2", power),
                        ("latency_slack", slack),
                    ],
                )
            }
            (Traffic::Novel, _) => {
                let unique = self.tag * 1_000_000 + i;
                let (printout, shape_key, shape) = if self.rng.range(0, 1) == 0 {
                    cnn_printout(&mut self.rng, unique)
                } else {
                    transformer_printout(&mut self.rng, unique)
                };
                format!(
                    "{{\"op\":\"{op}\",\"printout\":{},\"name\":\"net{unique}\",\"{shape_key}\":{shape}}}",
                    json_string(&printout)
                )
            }
        }
    }
}

fn zoo_request(op: &str, name: &str) -> String {
    format!("{{\"op\":\"{op}\",\"model\":{}}}", json_string(name))
}

fn what_if_request(name: &str, constraints: &[(&str, f64)]) -> String {
    let fields: Vec<String> = constraints
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!(
        "{{\"op\":\"what_if\",\"model\":{},\"constraints\":{{{}}}}}",
        json_string(name),
        fields.join(",")
    )
}

/// A seeded CNN `print(model)` dump: conv/norm/activation stages with
/// occasional pooling, then global pooling and a classifier whose
/// width carries `unique`. Returns the text and its input shape.
pub fn cnn_printout(rng: &mut Rng, unique: u64) -> (String, &'static str, String) {
    let side = *rng.pick(&[96u64, 128, 160, 192, 224]);
    let depth = rng.range(4, 12);
    let act = *rng.pick(&[
        "ReLU(inplace=True)",
        "ReLU6(inplace=True)",
        "SiLU(inplace=True)",
    ]);
    let mut lines = vec![
        format!("Net{unique}("),
        "  (features): Sequential(".to_owned(),
    ];
    let mut channels = 3u64;
    let mut spatial = side;
    let mut idx = 0;
    for d in 0..depth {
        let out = (*rng.pick(&[16u64, 24, 32, 48, 64])) << (d * 3 / depth).min(3);
        let k = *rng.pick(&[1u64, 3, 3, 5]);
        let stride = if spatial > 8 && rng.range(0, 3) == 0 {
            2
        } else {
            1
        };
        lines.push(format!(
            "    ({idx}): Conv2d({channels}, {out}, kernel_size=({k}, {k}), stride=({stride}, {stride}), padding=({p}, {p}), bias=False)",
            p = k / 2
        ));
        lines.push(format!(
            "    ({}): BatchNorm2d({out}, eps=1e-05, momentum=0.1, affine=True, track_running_stats=True)",
            idx + 1
        ));
        lines.push(format!("    ({}): {act}", idx + 2));
        idx += 3;
        spatial = spatial.div_ceil(stride);
        if spatial > 8 && rng.range(0, 3) == 0 {
            lines.push(format!(
                "    ({idx}): MaxPool2d(kernel_size=2, stride=2, padding=0, dilation=1, ceil_mode=False)"
            ));
            idx += 1;
            spatial /= 2;
        }
        channels = out;
    }
    lines.push("  )".to_owned());
    lines.push("  (avgpool): AdaptiveAvgPool2d(output_size=(1, 1))".to_owned());
    lines.push("  (flatten): Flatten(start_dim=1, end_dim=-1)".to_owned());
    lines.push(format!(
        "  (classifier): Linear(in_features={channels}, out_features={}, bias=True)",
        10 + unique % 100_000
    ));
    lines.push(")".to_owned());
    (lines.join("\n"), "image", format!("[3,{side},{side}]"))
}

/// A seeded transformer-encoder dump: attention and MLP blocks over a
/// token sequence, then a head whose width carries `unique`. Returns
/// the text and its input shape.
pub fn transformer_printout(rng: &mut Rng, unique: u64) -> (String, &'static str, String) {
    let tokens = *rng.pick(&[64u64, 128, 197, 256]);
    let width = *rng.pick(&[192u64, 256, 384, 512, 768]);
    let depth = rng.range(2, 8);
    let mlp = width * *rng.pick(&[2u64, 4]);
    let mut lines = vec![format!("Tx{unique}("), "  (blocks): ModuleList(".to_owned()];
    for d in 0..depth {
        lines.extend([
            format!("    ({d}): Block("),
            format!("      (norm1): LayerNorm(({width},), eps=1e-06, elementwise_affine=True)"),
            "      (attn): Attention(".to_owned(),
            format!(
                "        (qkv): Linear(in_features={width}, out_features={}, bias=True)",
                3 * width
            ),
            format!("        (proj): Linear(in_features={width}, out_features={width}, bias=True)"),
            "      )".to_owned(),
            format!("      (norm2): LayerNorm(({width},), eps=1e-06, elementwise_affine=True)"),
            "      (mlp): Mlp(".to_owned(),
            format!("        (fc1): Linear(in_features={width}, out_features={mlp}, bias=True)"),
            "        (act): GELU(approximate='none')".to_owned(),
            format!("        (fc2): Linear(in_features={mlp}, out_features={width}, bias=True)"),
            "      )".to_owned(),
            "    )".to_owned(),
        ]);
    }
    lines.push("  )".to_owned());
    lines.push(format!(
        "  (head): Linear(in_features={width}, out_features={}, bias=True)",
        10 + unique % 100_000
    ));
    lines.push(")".to_owned());
    (lines.join("\n"), "seq", format!("[{tokens},{width}]"))
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every input a run hands the program, concatenated.
    fn all_inputs(seed: u64) -> String {
        let mut out = custom_models(seed, 16).join("\n");
        out.push_str(&dense_config(seed).0);
        for traffic in [Traffic::Hot, Traffic::Novel] {
            for (tag, phase) in ["open", "closed"].into_iter().enumerate() {
                let mut s = RequestStream::new(seed, traffic, phase, tag as u64);
                out.push_str(&s.warmup().join("\n"));
                for _ in 0..200 {
                    out.push_str(&s.next_request());
                    out.push('\n');
                }
            }
        }
        out
    }

    #[test]
    fn one_seed_gives_byte_identical_inputs() {
        assert_eq!(all_inputs(7).as_bytes(), all_inputs(7).as_bytes());
    }

    #[test]
    fn another_seed_gives_different_inputs() {
        assert_ne!(all_inputs(7), all_inputs(8));
        assert_ne!(dense_config(7).0, dense_config(8).0);
        assert_ne!(custom_models(7, 16), custom_models(8, 16));
    }

    #[test]
    fn dense_space_keeps_ten_thousand_points() {
        for seed in 0..20 {
            assert_eq!(dense_config(seed).1, 10_000);
        }
    }

    #[test]
    fn novel_printouts_are_unique_within_a_run() {
        let mut seen = std::collections::BTreeSet::new();
        for (tag, phase) in ["open", "closed"].into_iter().enumerate() {
            let mut s = RequestStream::new(3, Traffic::Novel, phase, tag as u64);
            for _ in 0..300 {
                let r = s.next_request();
                if r.contains("printout") {
                    assert!(seen.insert(r), "duplicate novel request");
                }
            }
        }
    }
}

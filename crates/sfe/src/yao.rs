//! A Yao-style garbled-circuit two-party SFE protocol (the paper's
//! two-party SFE reference is Lindell–Pinkas [22]).
//!
//! The garbler (p₁) assigns every wire a pair of 16-byte labels related by
//! a global FreeXOR offset Δ: XOR and NOT gates are free, each AND gate
//! becomes a four-row garbled table encrypted under the input labels with
//! an SHA-256-derived key stream and a zero-tag for row detection. The
//! evaluator (p₂) obtains the labels of its own input bits through an
//! oblivious-transfer functionality, evaluates the circuit label by label,
//! decodes the outputs against the garbler's output map, and (in this
//! public-output variant) forwards the result to the garbler.
//!
//! **Security scope**: private against honest-but-curious parties and
//! abort-robust (any malformed table, label or decoding fails closed),
//! mirroring [`crate::gmw`]'s scope. Like every standard unfair SFE
//! protocol, its last message decides fairness: the *evaluator* learns the
//! output one round before the garbler, so a rushing corrupted evaluator
//! collects payoff γ₁₀ with certainty — the asymmetric counterpart of
//! GMW's symmetric unfairness, exercised by the E13 composability
//! experiment.

use std::collections::BTreeMap;
use std::sync::Arc;

use fair_circuits::{bits_to_u64, Circuit, Gate};
use fair_crypto::sha256::sha256_parts;
use fair_runtime::wire::{bytes_len, WireLen, INT, LEN_PREFIX, TAG};
use fair_runtime::{
    Envelope, FuncCtx, Functionality, Instance, OutMsg, Party, PartyId, RoundCtx, Value,
};
use rand::rngs::StdRng;
use rand::Rng;

/// Wire-label length in bytes.
pub const LABEL_LEN: usize = 16;

/// A wire label.
pub type Label = [u8; LABEL_LEN];

fn random_label<R: Rng + ?Sized>(rng: &mut R) -> Label {
    let mut l = [0u8; LABEL_LEN];
    rng.fill_bytes(&mut l);
    l
}

fn xor_label(a: &Label, b: &Label) -> Label {
    let mut out = [0u8; LABEL_LEN];
    for i in 0..LABEL_LEN {
        out[i] = a[i] ^ b[i];
    }
    out
}

/// Key stream for one garbled-table row: H(ka ‖ kb ‖ gate ‖ row).
fn row_pad(ka: &Label, kb: &Label, gate: u64, row: u8) -> [u8; 32] {
    sha256_parts(&[b"yao-row", ka, kb, &gate.to_be_bytes(), &[row]])
}

/// Output-map entry: H(label) — lets the evaluator decode without learning
/// the complementary label.
fn out_hash(label: &Label) -> [u8; 32] {
    sha256_parts(&[b"yao-out", label])
}

/// One garbled AND gate: four rows, each `label ‖ zero-tag` XOR-encrypted.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GarbledGate {
    rows: [[u8; LABEL_LEN + 8]; 4],
}

/// Everything the evaluator needs: garbled tables, the garbler's input
/// labels, and the output decode map.
#[derive(Clone, Debug)]
pub struct GarbledCircuit {
    /// Tables for AND gates, keyed by gate index.
    tables: BTreeMap<usize, GarbledGate>,
    /// Clear labels for constant gates (the constant's label).
    consts: BTreeMap<usize, Label>,
    /// The garbler's input-wire labels (wire index → active label).
    garbler_inputs: BTreeMap<usize, Label>,
    /// Output decode map: per output wire, (H(label₀), H(label₁)).
    output_map: Vec<([u8; 32], [u8; 32])>,
}

/// The garbler's secrets (kept locally; needed to answer OT requests).
#[derive(Clone, Debug)]
pub struct GarblerSecrets {
    /// For each evaluator input wire: (label₀, label₁).
    pub evaluator_label_pairs: BTreeMap<usize, (Label, Label)>,
}

/// Garbles `circuit` for a garbler holding `garbler_bits` on the first
/// `garbler_bits.len()` input wires; the remaining input wires belong to
/// the evaluator.
///
/// # Panics
///
/// Panics if `garbler_bits` exceeds the circuit's input count.
pub fn garble(
    circuit: &Circuit,
    garbler_bits: &[bool],
    rng: &mut StdRng,
) -> (GarbledCircuit, GarblerSecrets) {
    assert!(
        garbler_bits.len() <= circuit.num_inputs,
        "garbler input width"
    );
    let delta = random_label(rng);
    // label0 per wire; label1 = label0 ⊕ Δ (FreeXOR).
    let mut label0: Vec<Label> = Vec::with_capacity(circuit.num_wires());
    for _ in 0..circuit.num_inputs {
        label0.push(random_label(rng));
    }
    let mut tables = BTreeMap::new();
    let mut consts = BTreeMap::new();
    for (g, gate) in circuit.gates.iter().enumerate() {
        let w0 = match *gate {
            Gate::Xor(a, b) => xor_label(&label0[a.0], &label0[b.0]),
            Gate::Not(a) => xor_label(&label0[a.0], &delta),
            Gate::Const(c) => {
                let l = random_label(rng);
                // The evaluator always holds the label of the constant's
                // actual value.
                let active = if c { xor_label(&l, &delta) } else { l };
                consts.insert(g, active);
                l
            }
            Gate::And(a, b) => {
                let c0 = random_label(rng);
                let mut rows = [[0u8; LABEL_LEN + 8]; 4];
                for (row, item) in rows.iter_mut().enumerate() {
                    let bit_a = row & 1 == 1;
                    let bit_b = row & 2 == 2;
                    let ka = if bit_a {
                        xor_label(&label0[a.0], &delta)
                    } else {
                        label0[a.0]
                    };
                    let kb = if bit_b {
                        xor_label(&label0[b.0], &delta)
                    } else {
                        label0[b.0]
                    };
                    let out = if bit_a && bit_b {
                        xor_label(&c0, &delta)
                    } else {
                        c0
                    };
                    let pad = row_pad(&ka, &kb, g as u64, row as u8);
                    for (dst, (o, p)) in item.iter_mut().zip(out.iter().zip(&pad)) {
                        *dst = o ^ p;
                    }
                    // zero-tag
                    item[LABEL_LEN..LABEL_LEN + 8].copy_from_slice(&pad[LABEL_LEN..LABEL_LEN + 8]);
                }
                tables.insert(g, GarbledGate { rows });
                c0
            }
        };
        label0.push(w0);
    }
    let garbler_inputs: BTreeMap<usize, Label> = garbler_bits
        .iter()
        .enumerate()
        .map(|(w, &b)| {
            (
                w,
                if b {
                    xor_label(&label0[w], &delta)
                } else {
                    label0[w]
                },
            )
        })
        .collect();
    let evaluator_label_pairs: BTreeMap<usize, (Label, Label)> = (garbler_bits.len()
        ..circuit.num_inputs)
        .map(|w| (w, (label0[w], xor_label(&label0[w], &delta))))
        .collect();
    let output_map = circuit
        .outputs
        .iter()
        .map(|o| {
            (
                out_hash(&label0[o.0]),
                out_hash(&xor_label(&label0[o.0], &delta)),
            )
        })
        .collect();
    (
        GarbledCircuit {
            tables,
            consts,
            garbler_inputs,
            output_map,
        },
        GarblerSecrets {
            evaluator_label_pairs,
        },
    )
}

/// Evaluates a garbled circuit given the evaluator's own input labels.
///
/// Returns the output bits, or `None` if any table row fails to decrypt or
/// an output label does not decode — the fail-closed abort path.
pub fn evaluate(
    circuit: &Circuit,
    garbled: &GarbledCircuit,
    evaluator_labels: &BTreeMap<usize, Label>,
) -> Option<Vec<bool>> {
    let mut active: Vec<Option<Label>> = vec![None; circuit.num_wires()];
    for (&w, l) in &garbled.garbler_inputs {
        *active.get_mut(w)? = Some(*l);
    }
    for (&w, l) in evaluator_labels {
        *active.get_mut(w)? = Some(*l);
    }
    for (g, gate) in circuit.gates.iter().enumerate() {
        let w = circuit.num_inputs + g;
        let label = match *gate {
            Gate::Xor(a, b) => xor_label(&active[a.0]?, &active[b.0]?),
            Gate::Not(a) => active[a.0]?, // semantics flip lives in the label pair
            Gate::Const(_) => *garbled.consts.get(&g)?,
            Gate::And(a, b) => {
                let ka = active[a.0]?;
                let kb = active[b.0]?;
                let table = garbled.tables.get(&g)?;
                let mut found = None;
                for row in 0..4u8 {
                    let pad = row_pad(&ka, &kb, g as u64, row);
                    let ct = &table.rows[row as usize];
                    if ct[LABEL_LEN..]
                        .iter()
                        .zip(&pad[LABEL_LEN..LABEL_LEN + 8])
                        .all(|(c, p)| c == p)
                    {
                        let mut out = [0u8; LABEL_LEN];
                        for i in 0..LABEL_LEN {
                            out[i] = ct[i] ^ pad[i];
                        }
                        found = Some(out);
                        break;
                    }
                }
                found?
            }
        };
        active[w] = Some(label);
    }
    let mut bits = Vec::with_capacity(circuit.outputs.len());
    for (o, (h0, h1)) in circuit.outputs.iter().zip(&garbled.output_map) {
        let h = out_hash(&active[o.0]?);
        if h == *h0 {
            bits.push(false);
        } else if h == *h1 {
            bits.push(true);
        } else {
            return None;
        }
    }
    Some(bits)
}

/// NOT-gate handling note: a NOT gate reuses its operand's label but the
/// garbler swaps the *meaning* of the pair. With FreeXOR, W¹ = W⁰ ⊕ Δ, so
/// the NOT output's zero-label is the operand's one-label; `garble`
/// records exactly that, and downstream gates key off the recorded pair.
/// (This constant documents the convention for auditors; it has no
/// runtime role.)
pub const NOT_CONVENTION: &str = "not(x): label0(out) = label1(in)";

/// Wire messages of the Yao protocol.
#[derive(Clone, Debug)]
pub enum YaoMsg {
    /// Evaluator → OT functionality: choice bits for its input wires.
    OtChoose(Vec<bool>),
    /// Garbler → OT functionality: label pairs for the evaluator's wires
    /// (wire-ordered).
    OtPairs(Vec<(Label, Label)>),
    /// OT functionality → evaluator: the chosen labels (wire-ordered).
    OtLabels(Vec<Label>),
    /// Garbler → evaluator: the garbled circuit.
    Garbled(Box<GarbledCircuitWire>),
    /// Evaluator → garbler: the decoded output bits.
    Output(Vec<bool>),
}

impl WireLen for YaoMsg {
    fn wire_len(&self) -> usize {
        TAG + match self {
            YaoMsg::OtChoose(bits) | YaoMsg::Output(bits) => bits.wire_len(),
            YaoMsg::OtPairs(pairs) => bytes_len(2 * LABEL_LEN * pairs.len()),
            YaoMsg::OtLabels(labels) => bytes_len(LABEL_LEN * labels.len()),
            YaoMsg::Garbled(wire) => wire.garbled.wire_len(),
        }
    }
}

impl GarbledCircuit {
    /// Encoded size: the gate tables and the constant and garbler-input
    /// labels as length-prefixed lists keyed by an integer index, then the
    /// output decode map as one byte string.
    fn wire_len(&self) -> usize {
        let keyed = |entries: usize, entry: usize| LEN_PREFIX + entries * (INT + entry);
        keyed(self.tables.len(), 4 * (LABEL_LEN + 8))
            + keyed(self.consts.len(), LABEL_LEN)
            + keyed(self.garbler_inputs.len(), LABEL_LEN)
            + bytes_len(64 * self.output_map.len())
    }
}

/// The on-wire form of a garbled circuit (gate-indexed tables flattened).
#[derive(Clone, Debug)]
pub struct GarbledCircuitWire {
    /// The garbled circuit.
    pub garbled: GarbledCircuit,
}

/// The one-out-of-two OT functionality: matches choices with label pairs
/// and delivers the chosen labels to the evaluator.
#[derive(Default)]
pub struct OtFunctionality {
    choices: Option<Vec<bool>>,
    pairs: Option<Vec<(Label, Label)>>,
    done: bool,
}

impl OtFunctionality {
    /// Creates the functionality.
    pub fn new() -> OtFunctionality {
        OtFunctionality::default()
    }
}

impl Functionality<YaoMsg> for OtFunctionality {
    fn name(&self) -> &str {
        "F_ot"
    }

    fn on_round(
        &mut self,
        _ctx: &mut FuncCtx<'_>,
        incoming: &[Envelope<YaoMsg>],
    ) -> Vec<OutMsg<YaoMsg>> {
        for e in incoming {
            match (&e.msg, e.from_party()) {
                (YaoMsg::OtChoose(c), Some(p)) if p == PartyId(1) && self.choices.is_none() => {
                    self.choices = Some(c.clone());
                }
                (YaoMsg::OtPairs(p), Some(q)) if q == PartyId(0) && self.pairs.is_none() => {
                    self.pairs = Some(p.clone());
                }
                _ => {}
            }
        }
        if self.done {
            return Vec::new();
        }
        if let (Some(choices), Some(pairs)) = (&self.choices, &self.pairs) {
            self.done = true;
            if choices.len() != pairs.len() {
                return Vec::new(); // malformed request: starve (abort path)
            }
            let labels: Vec<Label> = choices
                .iter()
                .zip(pairs)
                .map(|(&c, &(l0, l1))| if c { l1 } else { l0 })
                .collect();
            return vec![OutMsg::to_party(PartyId(1), YaoMsg::OtLabels(labels))];
        }
        Vec::new()
    }
}

/// Rounds a party waits before concluding the counterparty aborted.
const DEADLINE: usize = 8;

/// The garbler party (p₁).
pub struct GarblerParty {
    circuit: Arc<Circuit>,
    bits: Vec<bool>,
    secrets: Option<GarblerSecrets>,
    garbled: Option<GarbledCircuit>,
    out: Option<Value>,
    pregen_seed: u64,
}

impl core::fmt::Debug for GarblerParty {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("GarblerParty")
            .field("out", &self.out)
            .finish()
    }
}

impl Clone for GarblerParty {
    fn clone(&self) -> Self {
        GarblerParty {
            circuit: Arc::clone(&self.circuit),
            bits: self.bits.clone(),
            secrets: self.secrets.clone(),
            garbled: self.garbled.clone(),
            out: self.out.clone(),
            pregen_seed: self.pregen_seed,
        }
    }
}

impl GarblerParty {
    /// Creates the garbler with its input bits.
    pub fn new(circuit: Arc<Circuit>, bits: Vec<bool>, rng: &mut StdRng) -> GarblerParty {
        use rand::RngExt;
        GarblerParty {
            circuit,
            bits,
            secrets: None,
            garbled: None,
            out: None,
            pregen_seed: rng.random(),
        }
    }
}

impl Party<YaoMsg> for GarblerParty {
    fn round(&mut self, ctx: &RoundCtx, inbox: &[Envelope<YaoMsg>]) -> Vec<OutMsg<YaoMsg>> {
        if self.out.is_some() {
            return Vec::new();
        }
        for e in inbox {
            if let (YaoMsg::Output(bits), Some(p)) = (&e.msg, e.from_party()) {
                if p == PartyId(1) {
                    // Public-output variant: adopt the evaluator's report.
                    self.out = Some(Value::Scalar(bits_to_u64(bits)));
                    return Vec::new();
                }
            }
        }
        if ctx.round == 0 {
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(self.pregen_seed);
            let (garbled, secrets) = garble(&self.circuit, &self.bits, &mut rng);
            let pairs: Vec<(Label, Label)> =
                secrets.evaluator_label_pairs.values().copied().collect();
            self.garbled = Some(garbled.clone());
            self.secrets = Some(secrets);
            return vec![
                OutMsg::to_func(fair_runtime::FuncId(0), YaoMsg::OtPairs(pairs)),
                OutMsg::to_party(
                    PartyId(1),
                    YaoMsg::Garbled(Box::new(GarbledCircuitWire { garbled })),
                ),
            ];
        }
        if ctx.round >= DEADLINE {
            self.out = Some(Value::Bot);
        }
        Vec::new()
    }

    fn output(&self) -> Option<Value> {
        self.out.clone()
    }

    fn clone_box(&self) -> Box<dyn Party<YaoMsg>> {
        Box::new(self.clone())
    }
}

/// The evaluator party (p₂).
pub struct EvaluatorParty {
    circuit: Arc<Circuit>,
    bits: Vec<bool>,
    garbled: Option<GarbledCircuit>,
    labels: Option<Vec<Label>>,
    out: Option<Value>,
}

impl core::fmt::Debug for EvaluatorParty {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EvaluatorParty")
            .field("out", &self.out)
            .finish()
    }
}

impl Clone for EvaluatorParty {
    fn clone(&self) -> Self {
        EvaluatorParty {
            circuit: Arc::clone(&self.circuit),
            bits: self.bits.clone(),
            garbled: self.garbled.clone(),
            labels: self.labels.clone(),
            out: self.out.clone(),
        }
    }
}

impl EvaluatorParty {
    /// Creates the evaluator with its input bits.
    pub fn new(circuit: Arc<Circuit>, bits: Vec<bool>) -> EvaluatorParty {
        EvaluatorParty {
            circuit,
            bits,
            garbled: None,
            labels: None,
            out: None,
        }
    }

    fn try_evaluate(&mut self) -> Option<Vec<bool>> {
        let garbled = self.garbled.as_ref()?;
        let labels = self.labels.as_ref()?;
        let offset = self.circuit.num_inputs - self.bits.len();
        let map: BTreeMap<usize, Label> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| (offset + i, l))
            .collect();
        evaluate(&self.circuit, garbled, &map)
    }
}

impl Party<YaoMsg> for EvaluatorParty {
    fn round(&mut self, ctx: &RoundCtx, inbox: &[Envelope<YaoMsg>]) -> Vec<OutMsg<YaoMsg>> {
        if self.out.is_some() {
            return Vec::new();
        }
        for e in inbox {
            match &e.msg {
                YaoMsg::Garbled(g) if self.garbled.is_none() => {
                    self.garbled = Some(g.garbled.clone());
                }
                YaoMsg::OtLabels(l) if self.labels.is_none() => {
                    self.labels = Some(l.clone());
                }
                _ => {}
            }
        }
        if ctx.round == 0 {
            return vec![OutMsg::to_func(
                fair_runtime::FuncId(0),
                YaoMsg::OtChoose(self.bits.clone()),
            )];
        }
        if self.garbled.is_some() && self.labels.is_some() {
            return match self.try_evaluate() {
                Some(bits) => {
                    self.out = Some(Value::Scalar(bits_to_u64(&bits)));
                    vec![OutMsg::to_party(PartyId(0), YaoMsg::Output(bits))]
                }
                None => {
                    self.out = Some(Value::Bot);
                    Vec::new()
                }
            };
        }
        if ctx.round >= DEADLINE {
            self.out = Some(Value::Bot);
        }
        Vec::new()
    }

    fn output(&self) -> Option<Value> {
        self.out.clone()
    }

    fn clone_box(&self) -> Box<dyn Party<YaoMsg>> {
        Box::new(self.clone())
    }
}

/// Builds a ready-to-run Yao instance. `inputs[0]` belongs to the garbler
/// (first `widths[0]` circuit inputs), `inputs[1]` to the evaluator.
pub fn yao_instance(
    circuit: &Arc<Circuit>,
    widths: [usize; 2],
    inputs: [u64; 2],
    rng: &mut StdRng,
) -> Instance<YaoMsg> {
    assert_eq!(
        widths[0] + widths[1],
        circuit.num_inputs,
        "widths cover the inputs"
    );
    let g_bits = fair_circuits::u64_to_bits(inputs[0], widths[0]);
    let e_bits = fair_circuits::u64_to_bits(inputs[1], widths[1]);
    Instance {
        parties: vec![
            Box::new(GarblerParty::new(Arc::clone(circuit), g_bits, rng)),
            Box::new(EvaluatorParty::new(Arc::clone(circuit), e_bits)),
        ],
        funcs: vec![Box::new(OtFunctionality::new())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_circuits::functions;
    use fair_runtime::{execute, Passive};
    use rand::SeedableRng;

    fn run_yao(
        circuit: Circuit,
        widths: [usize; 2],
        inputs: [u64; 2],
        seed: u64,
    ) -> fair_runtime::ExecutionResult {
        let circuit = Arc::new(circuit);
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = yao_instance(&circuit, widths, inputs, &mut rng);
        execute(inst, &mut Passive, &mut rng, 20).expect("execution succeeds")
    }

    #[test]
    fn garble_evaluate_roundtrip_offline() {
        let circuit = functions::millionaires(8);
        let mut rng = StdRng::seed_from_u64(3);
        for (a, b) in [(200u64, 100u64), (100, 200), (7, 7)] {
            let g_bits = fair_circuits::u64_to_bits(a, 8);
            let (garbled, secrets) = garble(&circuit, &g_bits, &mut rng);
            let e_bits = fair_circuits::u64_to_bits(b, 8);
            let labels: BTreeMap<usize, Label> = secrets
                .evaluator_label_pairs
                .iter()
                .map(|(&w, &(l0, l1))| (w, if e_bits[w - 8] { l1 } else { l0 }))
                .collect();
            let out = evaluate(&circuit, &garbled, &labels).expect("evaluates");
            assert_eq!(out, vec![a > b], "{a} > {b}");
        }
    }

    #[test]
    fn yao_protocol_computes_millionaires() {
        for (a, b, seed) in [(200u64, 100u64, 1u64), (100, 200, 2), (55, 55, 3)] {
            let res = run_yao(functions::millionaires(8), [8, 8], [a, b], seed);
            let expect = Value::Scalar((a > b) as u64);
            assert!(
                res.all_honest_output(&expect),
                "{a} > {b}: {:?}",
                res.outputs
            );
        }
    }

    #[test]
    fn yao_protocol_handles_xor_not_const_gates() {
        // (a XOR b) with NOT and constants mixed in.
        let mut bld = fair_circuits::Builder::new();
        let x = bld.inputs(4);
        let y = bld.inputs(4);
        let t = bld.constant(true);
        let xor = bld.xor_vec(&x, &y);
        let n = bld.not(xor[0]);
        let a = bld.and(n, t);
        let o = bld.or(a, xor[3]);
        let circuit = bld.finish(vec![o]);
        for (a_in, b_in, seed) in [(0b1010u64, 0b0110u64, 5u64), (0, 0, 6), (15, 15, 7)] {
            let mut input = fair_circuits::u64_to_bits(a_in, 4);
            input.extend(fair_circuits::u64_to_bits(b_in, 4));
            let expect = circuit.eval(&input)[0] as u64;
            let res = run_yao(circuit.clone(), [4, 4], [a_in, b_in], seed);
            assert!(
                res.all_honest_output(&Value::Scalar(expect)),
                "{a_in}^{b_in}"
            );
        }
    }

    #[test]
    fn tampered_table_fails_closed() {
        let circuit = functions::and1();
        let mut rng = StdRng::seed_from_u64(11);
        let (mut garbled, secrets) = garble(&circuit, &[true], &mut rng);
        // Corrupt the single AND table.
        let gate = *garbled.tables.keys().next().expect("one AND gate");
        garbled.tables.get_mut(&gate).expect("present").rows[0][0] ^= 1;
        garbled.tables.get_mut(&gate).expect("present").rows[1][0] ^= 1;
        garbled.tables.get_mut(&gate).expect("present").rows[2][0] ^= 1;
        garbled.tables.get_mut(&gate).expect("present").rows[3][0] ^= 1;
        let labels: BTreeMap<usize, Label> = secrets
            .evaluator_label_pairs
            .iter()
            .map(|(&w, &(l0, _))| (w, l0))
            .collect();
        // All four zero-tags are only damaged with the label bytes — rows
        // may still be *detected*, but the decrypted label then fails the
        // output map. Either way: no wrong output.
        match evaluate(&circuit, &garbled, &labels) {
            None => {}
            Some(bits) => assert_eq!(bits, vec![false], "1 AND 0 is 0"),
        }
    }

    #[test]
    fn wrong_labels_cannot_evaluate() {
        let circuit = functions::millionaires(4);
        let mut rng = StdRng::seed_from_u64(12);
        let (garbled, _) = garble(&circuit, &fair_circuits::u64_to_bits(9, 4), &mut rng);
        // Random garbage labels: the AND rows never authenticate.
        let labels: BTreeMap<usize, Label> = (4..8).map(|w| (w, random_label(&mut rng))).collect();
        assert_eq!(evaluate(&circuit, &garbled, &labels), None);
    }

    #[test]
    fn silent_garbler_aborts_the_evaluator() {
        struct Silent;
        impl fair_runtime::Adversary<YaoMsg> for Silent {
            fn initial_corruptions(&mut self, _n: usize, _r: &mut StdRng) -> Vec<PartyId> {
                vec![PartyId(0)]
            }
            fn on_round(
                &mut self,
                _v: &fair_runtime::RoundView<'_, YaoMsg>,
                _c: &mut fair_runtime::AdvControl<'_, YaoMsg>,
                _r: &mut StdRng,
            ) {
            }
        }
        let circuit = Arc::new(functions::and1());
        let mut rng = StdRng::seed_from_u64(13);
        let inst = yao_instance(&circuit, [1, 1], [1, 1], &mut rng);
        let res = execute(inst, &mut Silent, &mut rng, 20).expect("execution succeeds");
        assert_eq!(res.outputs[&PartyId(1)], Value::Bot);
    }

    #[test]
    fn yao_msg_wire_len_per_variant() {
        assert_eq!(YaoMsg::OtChoose(vec![true; 3]).wire_len(), 1 + 4 + 1);
        assert_eq!(
            YaoMsg::OtPairs(vec![([0; LABEL_LEN], [1; LABEL_LEN]); 2]).wire_len(),
            1 + 4 + 64
        );
        assert_eq!(
            YaoMsg::OtLabels(vec![[0; LABEL_LEN]; 3]).wire_len(),
            1 + 4 + 48
        );
        assert_eq!(YaoMsg::Output(vec![false; 16]).wire_len(), 1 + 4 + 2);
        let garbled = GarbledCircuit {
            tables: BTreeMap::from([(
                0,
                GarbledGate {
                    rows: [[0; LABEL_LEN + 8]; 4],
                },
            )]),
            consts: BTreeMap::new(),
            garbler_inputs: BTreeMap::from([(1, [0; LABEL_LEN]), (2, [0; LABEL_LEN])]),
            output_map: vec![([0; 32], [0; 32])],
        };
        // tag + (4 + 8 + 96) + 4 + (4 + 2 × (8 + 16)) + (4 + 64)
        assert_eq!(
            YaoMsg::Garbled(Box::new(GarbledCircuitWire { garbled })).wire_len(),
            1 + 108 + 4 + 52 + 68
        );
    }
}

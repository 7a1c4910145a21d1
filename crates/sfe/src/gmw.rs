//! A GMW-style n-party boolean-circuit SFE protocol.
//!
//! This is the *real-protocol* instantiation of the unfair-SFE phase that
//! the paper's optimal protocols invoke as a hybrid (the paper cites GMW
//! \[16\]). Inputs are XOR-shared among all parties; XOR/NOT/CONST gates are
//! local; each AND gate consumes one Beaver triple dealt by a trusted
//! dealer functionality (the standard offline phase); the output is
//! publicly reconstructed by broadcasting output-wire shares.
//!
//! **Security scope.** The online protocol is information-theoretically
//! private against honest-but-curious coalitions and handles *abort-style*
//! deviations (any missing or malformed message makes honest parties
//! abort). This matches how the fairness experiments use it: the
//! attackers of interest deviate by withholding messages at chosen rounds —
//! exactly the power that breaks fairness — and the composability
//! experiment (E13 in DESIGN.md) shows the best such attacker obtains the
//! same utility against this real protocol as against the ideal
//! [`SfeWithAbort`] hybrid.
//!
//! The protocol is *maximally unfair* by design: output shares are
//! broadcast in a single round, so a rushing adversary always learns the
//! output before deciding whether honest parties do. (That is the paper's
//! motivating observation: standard SFE gives the attacker payoff γ₁₀.)
//!
//! [`SfeWithAbort`]: crate::ideal::SfeWithAbort

use std::collections::BTreeMap;
use std::sync::Arc;

use fair_circuits::{bits_to_u64, Circuit, Gate};
use fair_runtime::wire::{bits_len, WireLen, TAG};
use fair_runtime::{Envelope, FuncCtx, Functionality, OutMsg, Party, PartyId, RoundCtx, Value};
use rand::rngs::StdRng;
use rand::RngExt;

/// A Beaver multiplication triple share: (a, b, c) with Σa_i = a, Σb_i = b,
/// Σc_i = a∧b (sums over GF(2)).
pub type TripleShare = (bool, bool, bool);

/// GMW wire messages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GmwMsg {
    /// Sender's XOR share of its own input bits, destined for one party.
    InputShare(Vec<bool>),
    /// Dealer → party: one triple share per AND gate, in gate order.
    Triples(Vec<TripleShare>),
    /// Broadcast: masked openings (d, e) for every AND gate of one wave.
    Open(Vec<(bool, bool)>),
    /// Broadcast: this party's shares of the output wires.
    OutShare(Vec<bool>),
}

/// Every payload is bits, packed: a triple share is three bits and a
/// masked opening two.
impl WireLen for GmwMsg {
    fn wire_len(&self) -> usize {
        TAG + match self {
            GmwMsg::InputShare(bits) | GmwMsg::OutShare(bits) => bits.wire_len(),
            GmwMsg::Triples(triples) => bits_len(3 * triples.len()),
            GmwMsg::Open(openings) => bits_len(2 * openings.len()),
        }
    }
}

/// Static, shareable GMW configuration: the circuit, the per-party input
/// widths, and the precomputed AND-wave schedule.
#[derive(Debug)]
pub struct GmwConfig {
    circuit: Circuit,
    input_widths: Vec<usize>,
    input_offsets: Vec<usize>,
    /// For each gate index, its AND-wave (0 for non-AND gates).
    gate_wave: Vec<usize>,
    /// AND gate indices per wave (1-based waves).
    wave_gates: Vec<Vec<usize>>,
    /// For each AND gate index, its triple index (position among ANDs).
    triple_index: BTreeMap<usize, usize>,
    max_wave: usize,
}

impl GmwConfig {
    /// Builds a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the widths do not sum to the circuit's input count, the
    /// circuit fails validation, or it has more than 64 output bits.
    pub fn new(circuit: Circuit, input_widths: Vec<usize>) -> Arc<GmwConfig> {
        circuit.validate().expect("valid circuit");
        assert_eq!(
            input_widths.iter().sum::<usize>(),
            circuit.num_inputs,
            "input widths must cover the circuit inputs"
        );
        assert!(circuit.outputs.len() <= 64, "outputs must fit in a u64");
        let mut input_offsets = Vec::with_capacity(input_widths.len());
        let mut off = 0;
        for w in &input_widths {
            input_offsets.push(off);
            off += w;
        }
        // Wave assignment: wire_wave[input] = 0; XOR/NOT/CONST inherit the
        // max of their operands; AND adds 1.
        let mut wire_wave = vec![0usize; circuit.num_wires()];
        let mut gate_wave = vec![0usize; circuit.gates.len()];
        let mut triple_index = BTreeMap::new();
        let mut max_wave = 0;
        let mut and_seen = 0;
        for (g, gate) in circuit.gates.iter().enumerate() {
            let w = circuit.num_inputs + g;
            wire_wave[w] = match *gate {
                Gate::Xor(a, b) => wire_wave[a.0].max(wire_wave[b.0]),
                Gate::Not(a) => wire_wave[a.0],
                Gate::Const(_) => 0,
                Gate::And(a, b) => {
                    let wave = wire_wave[a.0].max(wire_wave[b.0]) + 1;
                    gate_wave[g] = wave;
                    triple_index.insert(g, and_seen);
                    and_seen += 1;
                    max_wave = max_wave.max(wave);
                    wave
                }
            };
        }
        let mut wave_gates = vec![Vec::new(); max_wave + 1];
        for (g, &w) in gate_wave.iter().enumerate() {
            if w > 0 {
                wave_gates[w].push(g);
            }
        }
        Arc::new(GmwConfig {
            circuit,
            input_widths,
            input_offsets,
            gate_wave,
            wave_gates,
            triple_index,
            max_wave,
        })
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.input_widths.len()
    }

    /// The circuit being evaluated.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// AND-depth of the circuit (number of open rounds).
    pub fn waves(&self) -> usize {
        self.max_wave
    }

    /// Total protocol rounds (input sharing + opens + output exchange + 1).
    pub fn rounds(&self) -> usize {
        self.max_wave + 3
    }
}

/// A GMW party.
pub struct GmwParty {
    cfg: Arc<GmwConfig>,
    id: PartyId,
    input_bits: Vec<bool>,
    /// Pre-drawn shares of this party's input destined for each party
    /// (index = party id; own index holds the residual share).
    input_shares: Vec<Vec<bool>>,
    wires: Vec<Option<bool>>,
    triples: Vec<TripleShare>,
    opens: BTreeMap<PartyId, Vec<(bool, bool)>>,
    out_shares: BTreeMap<PartyId, Vec<bool>>,
    out: Option<Value>,
}

impl core::fmt::Debug for GmwParty {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("GmwParty")
            .field("id", &self.id)
            .field("out", &self.out)
            .finish()
    }
}

impl Clone for GmwParty {
    fn clone(&self) -> Self {
        GmwParty {
            cfg: Arc::clone(&self.cfg),
            id: self.id,
            input_bits: self.input_bits.clone(),
            input_shares: self.input_shares.clone(),
            wires: self.wires.clone(),
            triples: self.triples.clone(),
            opens: self.opens.clone(),
            out_shares: self.out_shares.clone(),
            out: self.out.clone(),
        }
    }
}

impl GmwParty {
    /// Creates a party holding `input` (little-endian bits of its declared
    /// width).
    ///
    /// # Panics
    ///
    /// Panics if the input width disagrees with the configuration.
    pub fn new(
        cfg: Arc<GmwConfig>,
        id: PartyId,
        input_bits: Vec<bool>,
        rng: &mut StdRng,
    ) -> GmwParty {
        let n = cfg.n();
        assert!(id.0 < n, "party id out of range");
        assert_eq!(
            input_bits.len(),
            cfg.input_widths[id.0],
            "input width mismatch"
        );
        // Pre-draw the XOR sharing of our input.
        let mut input_shares = vec![vec![false; input_bits.len()]; n];
        for (b, &bit) in input_bits.iter().enumerate() {
            let mut acc = bit;
            for (j, share) in input_shares.iter_mut().enumerate() {
                if j == id.0 {
                    continue;
                }
                let r: bool = rng.random();
                share[b] = r;
                acc ^= r;
            }
            input_shares[id.0][b] = acc;
        }
        GmwParty {
            cfg,
            id,
            input_bits,
            input_shares,
            wires: Vec::new(),
            triples: Vec::new(),
            opens: BTreeMap::new(),
            out_shares: BTreeMap::new(),
            out: None,
        }
    }

    fn abort(&mut self) -> Vec<OutMsg<GmwMsg>> {
        self.out = Some(Value::Bot);
        Vec::new()
    }

    /// Resolves all local (XOR/NOT/CONST) gates whose operands are known
    /// and all AND gates whose wave has been reconstructed into `wires`.
    fn resolve_local(&mut self, resolved_wave: usize) {
        let circuit = &self.cfg.circuit;
        for (g, gate) in circuit.gates.iter().enumerate() {
            let w = circuit.num_inputs + g;
            if self.wires[w].is_some() {
                continue;
            }
            let v = match *gate {
                Gate::Xor(a, b) => match (self.wires[a.0], self.wires[b.0]) {
                    (Some(x), Some(y)) => Some(x ^ y),
                    _ => None,
                },
                Gate::Not(a) => self.wires[a.0].map(|x| if self.id.0 == 0 { !x } else { x }),
                Gate::Const(c) => Some(if self.id.0 == 0 { c } else { false }),
                Gate::And(_, _) => {
                    // AND results are filled in by `reconstruct_wave`; only
                    // waves ≤ resolved_wave may be present.
                    debug_assert!(self.cfg.gate_wave[g] > resolved_wave);
                    None
                }
            };
            self.wires[w] = v;
        }
    }

    /// Computes this party's (d, e) openings for the given wave.
    fn wave_openings(&self, wave: usize) -> Vec<(bool, bool)> {
        self.cfg.wave_gates[wave]
            .iter()
            .map(|&g| {
                let (a, b) = match self.cfg.circuit.gates[g] {
                    Gate::And(a, b) => (a, b),
                    _ => unreachable!("wave gates are AND gates"),
                };
                let x = self.wires[a.0].expect("AND operand resolved");
                let y = self.wires[b.0].expect("AND operand resolved");
                let t = self.triples[self.cfg.triple_index[&g]];
                (x ^ t.0, y ^ t.1)
            })
            .collect()
    }

    /// Reconstructs wave `wave` AND outputs from everyone's openings.
    ///
    /// Returns `false` (abort) if any party's opening is missing/malformed.
    fn reconstruct_wave(&mut self, wave: usize) -> bool {
        let gates = self.cfg.wave_gates[wave].clone();
        let n = self.cfg.n();
        if self.opens.len() != n {
            return false;
        }
        if self.opens.values().any(|v| v.len() != gates.len()) {
            return false;
        }
        for (k, &g) in gates.iter().enumerate() {
            let mut d = false;
            let mut e = false;
            for v in self.opens.values() {
                d ^= v[k].0;
                e ^= v[k].1;
            }
            let t = self.triples[self.cfg.triple_index[&g]];
            let mut z = t.2 ^ (d & t.1) ^ (e & t.0);
            if self.id.0 == 0 {
                z ^= d & e;
            }
            let w = self.cfg.circuit.num_inputs + g;
            self.wires[w] = Some(z);
        }
        self.opens.clear();
        true
    }

    /// Broadcasts a wave opening, registering our own contribution
    /// immediately (the loopback copy is deduplicated on arrival) so that
    /// forked lookaheads see a consistent state.
    fn send_open(&mut self, wave: usize) -> Vec<OutMsg<GmwMsg>> {
        let mine = self.wave_openings(wave);
        self.opens.insert(self.id, mine.clone());
        vec![OutMsg::broadcast(GmwMsg::Open(mine))]
    }

    /// Broadcasts our output share, registering it immediately.
    fn send_out_share(&mut self) -> Vec<OutMsg<GmwMsg>> {
        let mine = self.output_share();
        self.out_shares.insert(self.id, mine.clone());
        vec![OutMsg::broadcast(GmwMsg::OutShare(mine))]
    }

    fn output_share(&self) -> Vec<bool> {
        self.cfg
            .circuit
            .outputs
            .iter()
            .map(|o| self.wires[o.0].expect("output wire resolved"))
            .collect()
    }
}

impl Party<GmwMsg> for GmwParty {
    fn round(&mut self, ctx: &RoundCtx, inbox: &[Envelope<GmwMsg>]) -> Vec<OutMsg<GmwMsg>> {
        if self.out.is_some() {
            return Vec::new();
        }
        let n = self.cfg.n();
        let w_max = self.cfg.max_wave;
        match ctx.round {
            // Round 0: distribute input shares.
            0 => (0..n)
                .filter(|&j| j != self.id.0)
                .map(|j| {
                    OutMsg::to_party(PartyId(j), GmwMsg::InputShare(self.input_shares[j].clone()))
                })
                .collect(),
            // Round 1: collect input shares + triples, resolve, open wave 1
            // (or exchange outputs if the circuit has no ANDs).
            1 => {
                let mut got: BTreeMap<PartyId, Vec<bool>> = BTreeMap::new();
                for e in inbox {
                    match (&e.msg, e.from_party()) {
                        (GmwMsg::InputShare(s), Some(p)) => {
                            got.entry(p).or_insert_with(|| s.clone());
                        }
                        (GmwMsg::Triples(t), None) => self.triples = t.clone(),
                        _ => {}
                    }
                }
                if got.len() != n - 1 || self.triples.len() != self.cfg.circuit.and_count() {
                    return self.abort();
                }
                // Install input-wire shares.
                self.wires = vec![None; self.cfg.circuit.num_wires()];
                for j in 0..n {
                    let (off, width) = (self.cfg.input_offsets[j], self.cfg.input_widths[j]);
                    let share = if j == self.id.0 {
                        self.input_shares[self.id.0].clone()
                    } else {
                        let s = got.remove(&PartyId(j)).expect("checked above");
                        if s.len() != width {
                            self.out = Some(Value::Bot);
                            return Vec::new();
                        }
                        s
                    };
                    for (b, &bit) in share.iter().enumerate() {
                        self.wires[off + b] = Some(bit);
                    }
                }
                self.resolve_local(0);
                if w_max == 0 {
                    self.send_out_share()
                } else {
                    self.send_open(1)
                }
            }
            // Rounds 2..=w_max+1: reconstruct previous wave, open next (or
            // exchange outputs). The final round collects output shares.
            r => {
                // Collect this round's messages.
                for e in inbox {
                    match (&e.msg, e.from_party()) {
                        (GmwMsg::Open(v), Some(p)) => {
                            self.opens.entry(p).or_insert_with(|| v.clone());
                        }
                        (GmwMsg::OutShare(s), Some(p)) => {
                            self.out_shares.entry(p).or_insert_with(|| s.clone());
                        }
                        _ => {}
                    }
                }
                let out_round = if w_max == 0 { 2 } else { w_max + 2 };
                if r < out_round {
                    // Reconstruct wave r-1, then open wave r or exchange.
                    let wave = r - 1;
                    if !self.reconstruct_wave(wave) {
                        return self.abort();
                    }
                    self.resolve_local(wave);
                    if wave == w_max {
                        self.send_out_share()
                    } else {
                        self.send_open(wave + 1)
                    }
                } else {
                    // Final round: combine output shares.
                    let want = self.cfg.circuit.outputs.len();
                    if self.out_shares.len() != n
                        || self.out_shares.values().any(|s| s.len() != want)
                    {
                        return self.abort();
                    }
                    let mut bits = vec![false; want];
                    for s in self.out_shares.values() {
                        for (i, &b) in s.iter().enumerate() {
                            bits[i] ^= b;
                        }
                    }
                    self.out = Some(Value::Scalar(bits_to_u64(&bits)));
                    Vec::new()
                }
            }
        }
    }

    fn output(&self) -> Option<Value> {
        self.out.clone()
    }

    fn clone_box(&self) -> Box<dyn Party<GmwMsg>> {
        Box::new(self.clone())
    }
}

/// The trusted Beaver-triple dealer (the offline phase as a hybrid).
pub struct TripleDealer {
    cfg: Arc<GmwConfig>,
    dealt: bool,
}

impl TripleDealer {
    /// Creates the dealer for a configuration.
    pub fn new(cfg: Arc<GmwConfig>) -> TripleDealer {
        TripleDealer { cfg, dealt: false }
    }
}

impl Functionality<GmwMsg> for TripleDealer {
    fn name(&self) -> &str {
        "F_triple_dealer"
    }

    fn on_round(
        &mut self,
        ctx: &mut FuncCtx<'_>,
        _incoming: &[Envelope<GmwMsg>],
    ) -> Vec<OutMsg<GmwMsg>> {
        if self.dealt {
            return Vec::new();
        }
        self.dealt = true;
        let n = ctx.n;
        let ands = self.cfg.circuit.and_count();
        let mut per_party: Vec<Vec<TripleShare>> = vec![Vec::with_capacity(ands); n];
        for _ in 0..ands {
            let a: bool = ctx.rng.random();
            let b: bool = ctx.rng.random();
            let c = a & b;
            let (mut sa, mut sb, mut sc) = (a, b, c);
            for p in per_party.iter_mut().take(n - 1) {
                let (ra, rb, rc): (bool, bool, bool) =
                    (ctx.rng.random(), ctx.rng.random(), ctx.rng.random());
                p.push((ra, rb, rc));
                sa ^= ra;
                sb ^= rb;
                sc ^= rc;
            }
            per_party[n - 1].push((sa, sb, sc));
        }
        per_party
            .into_iter()
            .enumerate()
            .map(|(i, t)| OutMsg::to_party(PartyId(i), GmwMsg::Triples(t)))
            .collect()
    }
}

/// Builds a ready-to-run GMW instance for `cfg` with the given per-party
/// inputs (as u64s, truncated to each party's declared width).
pub fn gmw_instance(
    cfg: &Arc<GmwConfig>,
    inputs: &[u64],
    rng: &mut StdRng,
) -> fair_runtime::Instance<GmwMsg> {
    assert_eq!(inputs.len(), cfg.n(), "one input per party");
    let parties = inputs
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let bits = fair_circuits::u64_to_bits(x, cfg.input_widths[i]);
            Box::new(GmwParty::new(Arc::clone(cfg), PartyId(i), bits, rng))
                as Box<dyn Party<GmwMsg>>
        })
        .collect();
    fair_runtime::Instance {
        parties,
        funcs: vec![Box::new(TripleDealer::new(Arc::clone(cfg)))],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_circuits::functions;
    use fair_runtime::{execute, Passive};
    use rand::SeedableRng;

    fn run_gmw(cfg: &Arc<GmwConfig>, inputs: &[u64], seed: u64) -> fair_runtime::ExecutionResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = gmw_instance(cfg, inputs, &mut rng);
        execute(inst, &mut Passive, &mut rng, cfg.rounds() + 4).expect("execution succeeds")
    }

    #[test]
    fn gmw_computes_and() {
        let cfg = GmwConfig::new(functions::and1(), vec![1, 1]);
        for (a, b) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
            let res = run_gmw(&cfg, &[a, b], 7 + a * 2 + b);
            assert!(res.all_honest_output(&Value::Scalar(a & b)), "{a} & {b}");
        }
    }

    #[test]
    fn gmw_computes_millionaires_three_waves() {
        let cfg = GmwConfig::new(functions::millionaires(8), vec![8, 8]);
        assert!(cfg.waves() > 1, "comparator should have AND depth > 1");
        for (a, b, seed) in [(200u64, 100u64, 1u64), (100, 200, 2), (55, 55, 3)] {
            let res = run_gmw(&cfg, &[a, b], seed);
            assert!(
                res.all_honest_output(&Value::Scalar((a > b) as u64)),
                "{a} > {b}"
            );
        }
    }

    #[test]
    fn gmw_computes_xor_only_circuit() {
        let cfg = GmwConfig::new(functions::xor_n(3), vec![1, 1, 1]);
        assert_eq!(cfg.waves(), 0);
        let res = run_gmw(&cfg, &[1, 1, 0], 5);
        assert!(res.all_honest_output(&Value::Scalar(0)));
        let res = run_gmw(&cfg, &[1, 0, 0], 6);
        assert!(res.all_honest_output(&Value::Scalar(1)));
    }

    #[test]
    fn gmw_five_party_sum() {
        let cfg = GmwConfig::new(functions::sum_mod(5, 4), vec![4, 4, 4, 4, 4]);
        let inputs = [3u64, 7, 11, 2, 15];
        let expect = inputs.iter().sum::<u64>() % 16;
        let res = run_gmw(&cfg, &inputs, 9);
        assert!(res.all_honest_output(&Value::Scalar(expect)));
    }

    #[test]
    fn silent_party_causes_unanimous_abort() {
        struct Silent;
        impl fair_runtime::Adversary<GmwMsg> for Silent {
            fn initial_corruptions(&mut self, _n: usize, _r: &mut StdRng) -> Vec<PartyId> {
                vec![PartyId(0)]
            }
            fn on_round(
                &mut self,
                _v: &fair_runtime::RoundView<'_, GmwMsg>,
                _c: &mut fair_runtime::AdvControl<'_, GmwMsg>,
                _r: &mut StdRng,
            ) {
            }
        }
        let cfg = GmwConfig::new(functions::and1(), vec![1, 1]);
        let mut rng = StdRng::seed_from_u64(11);
        let inst = gmw_instance(&cfg, &[1, 1], &mut rng);
        let res =
            execute(inst, &mut Silent, &mut rng, cfg.rounds() + 4).expect("execution succeeds");
        assert_eq!(res.outputs[&PartyId(1)], Value::Bot);
    }

    #[test]
    fn malformed_open_causes_abort() {
        /// Runs p1 honestly except that its wave-1 opening is truncated.
        struct Malform;
        impl fair_runtime::Adversary<GmwMsg> for Malform {
            fn initial_corruptions(&mut self, _n: usize, _r: &mut StdRng) -> Vec<PartyId> {
                vec![PartyId(0)]
            }
            fn on_round(
                &mut self,
                view: &fair_runtime::RoundView<'_, GmwMsg>,
                ctrl: &mut fair_runtime::AdvControl<'_, GmwMsg>,
                _r: &mut StdRng,
            ) {
                if view.round <= 1 {
                    ctrl.run_honestly(PartyId(0));
                } else if view.round == 2 {
                    ctrl.send_as(PartyId(0), OutMsg::broadcast(GmwMsg::Open(vec![])));
                }
            }
        }
        let cfg = GmwConfig::new(functions::millionaires(4), vec![4, 4]);
        let mut rng = StdRng::seed_from_u64(13);
        let inst = gmw_instance(&cfg, &[9, 3], &mut rng);
        let res =
            execute(inst, &mut Malform, &mut rng, cfg.rounds() + 4).expect("execution succeeds");
        assert_eq!(res.outputs[&PartyId(1)], Value::Bot);
    }

    #[test]
    fn config_rejects_bad_widths() {
        let result = std::panic::catch_unwind(|| GmwConfig::new(functions::and1(), vec![1, 2]));
        assert!(result.is_err());
    }

    #[test]
    fn gmw_msg_wire_len_per_variant() {
        assert_eq!(GmwMsg::InputShare(vec![true; 9]).wire_len(), 1 + 4 + 2);
        assert_eq!(
            GmwMsg::Triples(vec![(true, false, true); 3]).wire_len(),
            1 + 4 + 2
        );
        assert_eq!(GmwMsg::Open(vec![(true, true); 4]).wire_len(), 1 + 4 + 1);
        assert_eq!(GmwMsg::OutShare(vec![]).wire_len(), 1 + 4);
    }
}

//! The engine's trace vocabulary: what happened, encoded as plain
//! integers so events are `Copy`, comparable, and renderable without any
//! reference to the protocol's generic message type.

/// The source of a traced message (mirrors the engine's `Endpoint`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Src {
    /// A party, by id.
    Party(usize),
    /// A hybrid functionality, by id.
    Func(usize),
    /// The adversary's dedicated interface.
    Adversary,
}

impl core::fmt::Display for Src {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Src::Party(p) => write!(f, "p{p}"),
            Src::Func(x) => write!(f, "f{x}"),
            Src::Adversary => write!(f, "adv"),
        }
    }
}

/// The destination of a traced message (mirrors the engine's
/// `Destination`; a broadcast is traced once, before fan-out).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dst {
    /// A party, by id.
    Party(usize),
    /// A hybrid functionality, by id.
    Func(usize),
    /// The adversary's dedicated interface.
    Adversary,
    /// The consistent broadcast channel (delivered to every party).
    Broadcast,
}

impl core::fmt::Display for Dst {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Dst::Party(p) => write!(f, "p{p}"),
            Dst::Func(x) => write!(f, "f{x}"),
            Dst::Adversary => write!(f, "adv"),
            Dst::Broadcast => write!(f, "*"),
        }
    }
}

/// One engine event. Emitted by `fair_runtime`'s engine through a
/// [`crate::Tracer`] at round boundaries, message sends, functionality
/// invocations, corruptions, and output delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A new synchronous round began.
    RoundStart {
        /// 0-based round number.
        round: usize,
    },
    /// A message was released into the network (broadcasts count once).
    Send {
        /// Sender endpoint.
        from: Src,
        /// Destination endpoint.
        to: Dst,
        /// Message size: its encoded wire size ([`crate::WireLen`]).
        len: usize,
    },
    /// A functionality consumed a non-empty batch of messages.
    FuncCall {
        /// Functionality id.
        func: usize,
        /// Round of the invocation.
        round: usize,
        /// Number of messages consumed.
        msgs: usize,
    },
    /// A party fell under adversarial control (round 0 covers initial
    /// corruptions).
    Corrupt {
        /// The corrupted party.
        party: usize,
        /// Round of the corruption.
        round: usize,
    },
    /// An honest party's output was delivered at the end of execution.
    Output {
        /// The party.
        party: usize,
        /// Whether the output was ⊥ (the party aborted empty-handed).
        bot: bool,
    },
    /// The execution ended.
    End {
        /// Rounds actually executed.
        rounds: usize,
    },
}

impl TraceEvent {
    /// Renders the event as one deterministic transcript line.
    pub fn render(&self) -> String {
        match *self {
            TraceEvent::RoundStart { round } => format!("round {round}"),
            TraceEvent::Send { from, to, len } => format!("send from={from} to={to} len={len}"),
            TraceEvent::FuncCall { func, round, msgs } => {
                format!("func f{func} round={round} msgs={msgs}")
            }
            TraceEvent::Corrupt { party, round } => format!("corrupt p{party} round={round}"),
            TraceEvent::Output { party, bot } => format!("output p{party} bot={bot}"),
            TraceEvent::End { rounds } => format!("end rounds={rounds}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_are_stable() {
        assert_eq!(TraceEvent::RoundStart { round: 3 }.render(), "round 3");
        assert_eq!(
            TraceEvent::Send {
                from: Src::Party(0),
                to: Dst::Broadcast,
                len: 9
            }
            .render(),
            "send from=p0 to=* len=9"
        );
        assert_eq!(
            TraceEvent::Send {
                from: Src::Func(1),
                to: Dst::Adversary,
                len: 2
            }
            .render(),
            "send from=f1 to=adv len=2"
        );
        assert_eq!(
            TraceEvent::FuncCall {
                func: 0,
                round: 2,
                msgs: 4
            }
            .render(),
            "func f0 round=2 msgs=4"
        );
        assert_eq!(
            TraceEvent::Corrupt { party: 1, round: 0 }.render(),
            "corrupt p1 round=0"
        );
        assert_eq!(
            TraceEvent::Output {
                party: 0,
                bot: true
            }
            .render(),
            "output p0 bot=true"
        );
        assert_eq!(TraceEvent::End { rounds: 7 }.render(), "end rounds=7");
    }
}

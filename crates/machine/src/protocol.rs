//! Pluggable cache-coherence protocols.
//!
//! The paper's machine runs a full-map directory **write-invalidate**
//! (MSI) protocol. ROADMAP item 2 asks whether the 1994 placement result
//! survives richer protocols, so the protocol is now a first-class
//! parameter: a [`Protocol`] selector carried by
//! [`crate::ArchConfig`] and a [`CoherenceProtocol`] trait describing
//! each protocol's state lattice and transition table, with three
//! instances:
//!
//! * [`WriteInvalidate`] — the paper's MSI machine, bit-identical to the
//!   pre-refactor engine (pinned by differential proptests).
//! * [`Mesi`] — Illinois MESI. A read miss with no other holders fills
//!   **Exclusive** (clean); a later write hit upgrades E→M *silently*,
//!   with no directory transaction, eliminating upgrade traffic on
//!   private lines.
//! * [`Dragon`] — write-update. A write to a shared line sends the new
//!   data to every sharer (they keep their copies); nothing is ever
//!   invalidated, so invalidation misses are structurally zero and the
//!   coherence cost shows up as update traffic instead.
//!
//! # Dispatch
//!
//! The engines dispatch on the `Copy` [`Protocol`] enum (a monomorphic
//! `match` — the write-invalidate arm is literally the pre-refactor
//! code, which is what makes the bit-identity guarantee checkable). The
//! trait objects returned by [`Protocol::semantics`] are the *table*
//! those matches implement; `lattice_matches_dispatch` in this module's
//! tests pins the two representations to each other over every
//! `(protocol, state)` pair.

use crate::cache::LineState;
use std::fmt;
use std::str::FromStr;

/// Coherence-protocol selector carried by [`crate::ArchConfig`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Directory write-invalidate MSI (the paper's machine, the default).
    #[default]
    Wi,
    /// Illinois MESI: exclusive-clean fills, silent E→M upgrades.
    Mesi,
    /// Dragon write-update: sharers receive updates, never invalidations.
    Dragon,
}

/// Error for an unrecognized protocol name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownProtocol(pub String);

impl fmt::Display for UnknownProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown protocol '{}' (expected wi, mesi or dragon)",
            self.0
        )
    }
}

impl std::error::Error for UnknownProtocol {}

impl Protocol {
    /// All protocols, in presentation order.
    pub const ALL: [Protocol; 3] = [Protocol::Wi, Protocol::Mesi, Protocol::Dragon];

    /// Canonical lowercase name (the CLI `--protocol` vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            Protocol::Wi => "wi",
            Protocol::Mesi => "mesi",
            Protocol::Dragon => "dragon",
        }
    }

    /// The protocol's transition-table description.
    pub fn semantics(self) -> &'static dyn CoherenceProtocol {
        match self {
            Protocol::Wi => &WriteInvalidate,
            Protocol::Mesi => &Mesi,
            Protocol::Dragon => &Dragon,
        }
    }

    /// Hot-path transition table: what a write hit on a resident line in
    /// `state` does. Monomorphic twin of
    /// [`CoherenceProtocol::write_hit`].
    ///
    /// # Panics
    ///
    /// Panics on a `(protocol, state)` pair outside the protocol's
    /// lattice (e.g. an Exclusive line under write-invalidate) — such a
    /// state indicates engine corruption, never valid input.
    #[inline]
    pub fn write_hit(self, state: LineState) -> WriteHit {
        match (self, state) {
            (_, LineState::Modified) => WriteHit::Hit,
            (Protocol::Wi | Protocol::Mesi, LineState::Shared) => WriteHit::Upgrade,
            (Protocol::Mesi | Protocol::Dragon, LineState::Exclusive) => {
                // Silent local E→M: the holder is exclusive, so no
                // directory transaction and no upgrade is counted.
                WriteHit::Silent(LineState::Modified)
            }
            (Protocol::Dragon, LineState::Shared | LineState::SharedDirty) => WriteHit::Update,
            (p, s) => unreachable!("line state {s:?} outside the {p} lattice"),
        }
    }

    /// Whether a read miss with no other holders fills exclusive-clean
    /// ([`LineState::Exclusive`]) instead of [`LineState::Shared`].
    #[inline]
    pub fn exclusive_clean_fill(self) -> bool {
        !matches!(self, Protocol::Wi)
    }

    /// What a write (miss or shared hit) does to remote holders.
    #[inline]
    pub fn remote_write_action(self) -> RemoteAction {
        match self {
            Protocol::Wi | Protocol::Mesi => RemoteAction::Invalidate,
            Protocol::Dragon => RemoteAction::Update,
        }
    }

    /// State a dirty/exclusive holder drops to when a remote processor
    /// read-fills the line. Dragon keeps dirty ownership
    /// ([`LineState::SharedDirty`]); everyone else goes clean Shared.
    #[inline]
    pub fn downgrade_target(self, state: LineState) -> LineState {
        match (self, state) {
            (Protocol::Dragon, LineState::Modified) => LineState::SharedDirty,
            _ => LineState::Shared,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Protocol {
    type Err = UnknownProtocol;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "wi" => Ok(Protocol::Wi),
            "mesi" => Ok(Protocol::Mesi),
            "dragon" => Ok(Protocol::Dragon),
            other => Err(UnknownProtocol(other.to_string())),
        }
    }
}

/// What a write hit does, per the protocol's transition table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteHit {
    /// Sufficient permission already (Modified): plain hit.
    Hit,
    /// Local state transition with no bus/directory transaction
    /// (MESI/Dragon silent E→M).
    Silent(LineState),
    /// Coherence upgrade: the directory must invalidate remote sharers.
    Upgrade,
    /// Write-update: the new data is propagated to remote sharers, who
    /// keep their copies.
    Update,
}

/// What remote holders experience when another processor writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteAction {
    /// Their copy is removed (write-invalidate family).
    Invalidate,
    /// Their copy is refreshed in place (write-update family).
    Update,
}

/// A coherence protocol: its state lattice, write-hit transition table
/// and remote-action set. [`Protocol::semantics`] maps each selector to
/// its instance; the engines use the monomorphic [`Protocol`] methods,
/// which tests pin to this table.
pub trait CoherenceProtocol {
    /// The selector this instance implements.
    fn id(&self) -> Protocol;

    /// Human-readable protocol name.
    fn name(&self) -> &'static str;

    /// The states a resident line may legally occupy (the lattice; the
    /// auditor rejects anything outside it).
    fn lattice(&self) -> &'static [LineState];

    /// Transition-table entry for a write hit on a line in `state`.
    fn write_hit(&self, state: LineState) -> WriteHit;

    /// Whether a sole-holder read miss fills exclusive-clean.
    fn exclusive_clean_fill(&self) -> bool;

    /// The action a write sends to remote holders.
    fn remote_write_action(&self) -> RemoteAction;

    /// Target state when a dirty/exclusive holder is downgraded by a
    /// remote read.
    fn downgrade_target(&self, state: LineState) -> LineState;
}

/// The paper's directory write-invalidate MSI protocol.
pub struct WriteInvalidate;

/// Illinois MESI (exclusive-clean state, silent E→M upgrades).
pub struct Mesi;

/// Dragon write-update (sharers receive updates, never invalidations).
pub struct Dragon;

macro_rules! delegate_protocol {
    ($ty:ty, $id:expr, $name:literal, $lattice:expr) => {
        impl CoherenceProtocol for $ty {
            fn id(&self) -> Protocol {
                $id
            }

            fn name(&self) -> &'static str {
                $name
            }

            fn lattice(&self) -> &'static [LineState] {
                $lattice
            }

            fn write_hit(&self, state: LineState) -> WriteHit {
                $id.write_hit(state)
            }

            fn exclusive_clean_fill(&self) -> bool {
                $id.exclusive_clean_fill()
            }

            fn remote_write_action(&self) -> RemoteAction {
                $id.remote_write_action()
            }

            fn downgrade_target(&self, state: LineState) -> LineState {
                $id.downgrade_target(state)
            }
        }
    };
}

delegate_protocol!(
    WriteInvalidate,
    Protocol::Wi,
    "write-invalidate",
    &[LineState::Shared, LineState::Modified]
);
delegate_protocol!(
    Mesi,
    Protocol::Mesi,
    "MESI",
    &[LineState::Shared, LineState::Exclusive, LineState::Modified]
);
delegate_protocol!(
    Dragon,
    Protocol::Dragon,
    "Dragon",
    &[
        LineState::Shared,
        LineState::SharedDirty,
        LineState::Exclusive,
        LineState::Modified,
    ]
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in Protocol::ALL {
            assert_eq!(p.as_str().parse::<Protocol>().unwrap(), p);
            assert_eq!(p.to_string(), p.as_str());
            assert_eq!(p.semantics().id(), p);
        }
        let err = "mosi".parse::<Protocol>().unwrap_err();
        assert!(err.to_string().contains("mosi"));
        assert_eq!(Protocol::default(), Protocol::Wi);
    }

    #[test]
    fn lattice_matches_dispatch() {
        // The trait table and the monomorphic enum dispatch must agree on
        // every (protocol, state) pair inside the lattice.
        for p in Protocol::ALL {
            let sem = p.semantics();
            for &state in sem.lattice() {
                assert_eq!(sem.write_hit(state), p.write_hit(state), "{p} {state:?}");
            }
            assert_eq!(sem.exclusive_clean_fill(), p.exclusive_clean_fill());
            assert_eq!(sem.remote_write_action(), p.remote_write_action());
            for &state in sem.lattice() {
                assert_eq!(sem.downgrade_target(state), p.downgrade_target(state));
            }
        }
    }

    #[test]
    fn wi_table_is_the_paper_machine() {
        assert_eq!(Protocol::Wi.write_hit(LineState::Shared), WriteHit::Upgrade);
        assert_eq!(Protocol::Wi.write_hit(LineState::Modified), WriteHit::Hit);
        assert!(!Protocol::Wi.exclusive_clean_fill());
        assert_eq!(Protocol::Wi.remote_write_action(), RemoteAction::Invalidate);
        assert_eq!(
            Protocol::Wi.downgrade_target(LineState::Modified),
            LineState::Shared
        );
    }

    #[test]
    fn mesi_silent_upgrade_and_exclusive_fill() {
        assert_eq!(
            Protocol::Mesi.write_hit(LineState::Exclusive),
            WriteHit::Silent(LineState::Modified)
        );
        assert_eq!(
            Protocol::Mesi.write_hit(LineState::Shared),
            WriteHit::Upgrade
        );
        assert!(Protocol::Mesi.exclusive_clean_fill());
    }

    #[test]
    fn dragon_updates_and_keeps_dirty_ownership() {
        assert_eq!(
            Protocol::Dragon.write_hit(LineState::Shared),
            WriteHit::Update
        );
        assert_eq!(
            Protocol::Dragon.write_hit(LineState::SharedDirty),
            WriteHit::Update
        );
        assert_eq!(Protocol::Dragon.remote_write_action(), RemoteAction::Update);
        assert_eq!(
            Protocol::Dragon.downgrade_target(LineState::Modified),
            LineState::SharedDirty
        );
        assert_eq!(
            Protocol::Dragon.downgrade_target(LineState::Exclusive),
            LineState::Shared
        );
    }

    #[test]
    #[should_panic(expected = "outside the wi lattice")]
    fn illegal_state_panics() {
        let _ = Protocol::Wi.write_hit(LineState::Exclusive);
    }
}

//! TLB consistency strategies: the paper's algorithm, its incorrect
//! strawman, and the Section 9 hardware-assisted variants.

use std::fmt;

use machtlb_tlb::{ReloadPolicy, TlbConfig, WritebackPolicy};

/// How the kernel keeps remote TLBs consistent with pmap changes.
///
/// # Examples
///
/// ```
/// use machtlb_core::Strategy;
/// use machtlb_tlb::TlbConfig;
///
/// // The paper's algorithm runs on stock hardware...
/// assert!(Strategy::Shootdown.check_hardware(&TlbConfig::multimax()).is_ok());
/// // ...but remote invalidation needs interlocked writeback (Section 9).
/// assert!(Strategy::HardwareRemoteInvalidate
///     .check_hardware(&TlbConfig::multimax())
///     .is_err());
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// The Mach shootdown algorithm of Section 4: queue actions, interrupt
    /// the processors using the pmap, wait for them to quiesce, update, and
    /// let responders invalidate after the unlock.
    #[default]
    Shootdown,
    /// The naive approach Section 3 rules out: invalidate the local TLB,
    /// update the pmap, and proceed — no notification of remote processors.
    /// **Incorrect** on the modelled hardware; the consistency checker
    /// observes violations under it (that is its purpose).
    NaiveFlush,
    /// The shootdown algorithm, but the per-processor interrupt loop is
    /// replaced by one broadcast interrupt to all other processors
    /// (a Section 9 hardware option: "beyond some number of processors it
    /// is faster to use a broadcast interrupt ... than it is to iterate
    /// down the list").
    BroadcastIpi,
    /// TLBs support remote invalidation (the MC88200 technique, Section 9):
    /// the initiator shoots entries out of remote TLBs directly, with no
    /// interrupts and no responder involvement. Requires interlocked or
    /// absent referenced/modified writeback.
    HardwareRemoteInvalidate,
    /// Software-reloaded TLBs (the MIPS technique, Section 9): responders
    /// invalidate and return immediately instead of stalling, because a
    /// reload that races the update stalls in the software miss handler.
    /// Requires software reload and interlocked or absent writeback.
    NoStallSoftwareReload,
    /// Section 3's technique 2: "delay use of changed mappings until all
    /// buffers have been flushed (e.g. by code executed in response to
    /// timer interrupts)". No interrupts and no stalls; instead every
    /// processor flushes its TLB on a periodic timer, and a change only
    /// *takes effect* (for consistency purposes) once every processor has
    /// flushed after it. Mach rejected this "because the additional buffer
    /// flushes ... can be expensive"; the reproduction implements it for
    /// the ablation. Requires interlocked or absent referenced/modified
    /// writeback (postponed flushing cannot prevent writeback corruption).
    TimerDelayed,
}

impl Strategy {
    /// Whether the strategy sends shootdown interrupts at all.
    pub fn uses_interrupts(self) -> bool {
        !matches!(
            self,
            Strategy::NaiveFlush | Strategy::HardwareRemoteInvalidate | Strategy::TimerDelayed
        )
    }

    /// Whether responders stall until the initiator's update completes.
    pub fn responders_stall(self) -> bool {
        matches!(self, Strategy::Shootdown | Strategy::BroadcastIpi)
    }

    /// The Multimax TLB with the least change this strategy needs: stock
    /// for the interrupt-driven strategies, interlocked writeback for
    /// remote invalidation and timer-delayed flushing, and software reload
    /// without writeback for the no-stall responders. The constructive
    /// twin of [`Strategy::check_hardware`], which accepts it.
    ///
    /// ```
    /// use machtlb_core::Strategy;
    ///
    /// let s = Strategy::NoStallSoftwareReload;
    /// assert!(s.check_hardware(&s.multimax_tlb()).is_ok());
    /// ```
    pub fn multimax_tlb(self) -> TlbConfig {
        let stock = TlbConfig::multimax();
        match self {
            Strategy::Shootdown | Strategy::BroadcastIpi | Strategy::NaiveFlush => stock,
            Strategy::HardwareRemoteInvalidate | Strategy::TimerDelayed => TlbConfig {
                writeback: WritebackPolicy::Interlocked,
                ..stock
            },
            Strategy::NoStallSoftwareReload => TlbConfig {
                reload: ReloadPolicy::Software,
                writeback: WritebackPolicy::None,
                ..stock
            },
        }
    }

    /// Checks that `tlb` provides the hardware this strategy depends on.
    ///
    /// # Errors
    ///
    /// Returns a description of the missing hardware feature when the
    /// combination cannot maintain consistency (e.g. remote invalidation
    /// with non-interlocked writeback, which Section 9 calls out).
    pub fn check_hardware(self, tlb: &TlbConfig) -> Result<(), StrategyHardwareError> {
        match self {
            Strategy::Shootdown | Strategy::BroadcastIpi | Strategy::NaiveFlush => Ok(()),
            Strategy::TimerDelayed => {
                if tlb.writeback == WritebackPolicy::NonInterlocked {
                    Err(StrategyHardwareError {
                        strategy: self,
                        missing: "interlocked or absent referenced/modified writeback",
                    })
                } else {
                    Ok(())
                }
            }
            Strategy::HardwareRemoteInvalidate => {
                if tlb.writeback == WritebackPolicy::NonInterlocked {
                    Err(StrategyHardwareError {
                        strategy: self,
                        missing: "interlocked or absent referenced/modified writeback",
                    })
                } else {
                    Ok(())
                }
            }
            Strategy::NoStallSoftwareReload => {
                if tlb.reload != ReloadPolicy::Software {
                    Err(StrategyHardwareError {
                        strategy: self,
                        missing: "software TLB reload",
                    })
                } else if tlb.writeback == WritebackPolicy::NonInterlocked {
                    Err(StrategyHardwareError {
                        strategy: self,
                        missing: "interlocked or absent referenced/modified writeback",
                    })
                } else {
                    Ok(())
                }
            }
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Strategy::Shootdown => "shootdown",
            Strategy::NaiveFlush => "naive-flush",
            Strategy::BroadcastIpi => "broadcast-ipi",
            Strategy::HardwareRemoteInvalidate => "hw-remote-invalidate",
            Strategy::NoStallSoftwareReload => "no-stall-sw-reload",
            Strategy::TimerDelayed => "timer-delayed",
        };
        f.write_str(name)
    }
}

/// A strategy was configured on hardware that cannot support it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StrategyHardwareError {
    /// The strategy that was requested.
    pub strategy: Strategy,
    /// The hardware feature it needs.
    pub missing: &'static str,
}

impl fmt::Display for StrategyHardwareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "strategy {} requires {}", self.strategy, self.missing)
    }
}

impl std::error::Error for StrategyHardwareError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_shootdown() {
        assert_eq!(Strategy::default(), Strategy::Shootdown);
        assert!(Strategy::Shootdown.uses_interrupts());
        assert!(Strategy::Shootdown.responders_stall());
    }

    #[test]
    fn remote_invalidate_needs_safe_writeback() {
        let stock = TlbConfig::multimax();
        assert!(Strategy::HardwareRemoteInvalidate
            .check_hardware(&stock)
            .is_err());
        let ok = TlbConfig {
            writeback: WritebackPolicy::Interlocked,
            ..stock
        };
        assert!(Strategy::HardwareRemoteInvalidate
            .check_hardware(&ok)
            .is_ok());
        assert!(!Strategy::HardwareRemoteInvalidate.uses_interrupts());
    }

    #[test]
    fn no_stall_needs_software_reload() {
        let stock = TlbConfig::multimax();
        assert!(Strategy::NoStallSoftwareReload
            .check_hardware(&stock)
            .is_err());
        let ok = TlbConfig {
            reload: ReloadPolicy::Software,
            writeback: WritebackPolicy::None,
            ..stock
        };
        assert!(Strategy::NoStallSoftwareReload.check_hardware(&ok).is_ok());
        assert!(!Strategy::NoStallSoftwareReload.responders_stall());
    }

    #[test]
    fn every_strategy_accepts_its_multimax_tlb() {
        for s in [
            Strategy::Shootdown,
            Strategy::NaiveFlush,
            Strategy::BroadcastIpi,
            Strategy::HardwareRemoteInvalidate,
            Strategy::NoStallSoftwareReload,
            Strategy::TimerDelayed,
        ] {
            assert!(s.check_hardware(&s.multimax_tlb()).is_ok(), "{s}");
        }
        assert_eq!(Strategy::Shootdown.multimax_tlb(), TlbConfig::multimax());
    }

    #[test]
    fn error_display_names_the_feature() {
        let err = Strategy::NoStallSoftwareReload
            .check_hardware(&TlbConfig::multimax())
            .expect_err("stock hardware lacks software reload");
        assert!(err.to_string().contains("software TLB reload"));
    }
}

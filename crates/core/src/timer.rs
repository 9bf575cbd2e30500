//! Timer kinds: one enum per role, so a timer that is armed is a timer
//! that is handled, and armed once.
//!
//! [`Context::set_timer`](mykil_net::Context::set_timer) carries a bare
//! `u64` tag. Each role declares its kinds once with [`timer_kinds!`],
//! arms them through the enum, and decodes a firing tag back into the
//! enum in `on_timer`, which matches it with no wildcard arm (clippy's
//! `wildcard_enum_match_arm` and `match_wildcard_for_single_variants`
//! are on in every role's module). A kind added to the list but not to
//! that match does not compile.
//!
//! A timer cannot be cancelled, so arming a kind whose firing is still
//! queued would run it as two chains from then on. Each role keeps a
//! [`PendingTimers`]: `arm` is a no-op while the kind's bit is set, and
//! `fired` clears it before the firing is handled. The bits are
//! volatile: a crash wipes them as the simulator drops the firings of
//! the ended incarnation.

/// One bit per timer kind, indexed by tag: set while a firing is queued.
#[derive(Debug, Default)]
pub(crate) struct PendingTimers(pub(crate) u64);

/// Declares a role's timer kinds: the enum with its tag values (below
/// 64), `arm` (the one place a kind becomes a tag) and `fired` (the one
/// place a tag becomes a kind).
macro_rules! timer_kinds {
    (
        $(#[$meta:meta])*
        enum $name:ident {
            $($(#[$vmeta:meta])* $kind:ident = $tag:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum $name {
            $($(#[$vmeta])* $kind = $tag,)+
        }

        $(const _: () = assert!($tag < 64);)+

        impl $name {
            /// Fires this kind on the calling node after `delay`, unless
            /// a firing of it is still queued.
            fn arm(
                self,
                pending: &mut $crate::timer::PendingTimers,
                ctx: &mut mykil_net::Context<'_>,
                delay: mykil_net::Duration,
            ) {
                if pending.0 & 1 << self as u64 == 0 {
                    pending.0 |= 1 << self as u64;
                    ctx.set_timer(delay, self as u64);
                }
            }

            /// The kind a firing `tag` was armed as, no longer pending;
            /// `None` for a tag this role never arms.
            fn fired(pending: &mut $crate::timer::PendingTimers, tag: u64) -> Option<Self> {
                let kind = match tag {
                    $($tag => Self::$kind,)+
                    _ => return None,
                };
                pending.0 &= !(1 << tag);
                Some(kind)
            }
        }
    };
}

pub(crate) use timer_kinds;

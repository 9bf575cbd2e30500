//! Timer kinds: one enum per role, so a timer that is armed is a timer
//! that is handled.
//!
//! [`Context::set_timer`](mykil_net::Context::set_timer) carries a bare
//! `u64` tag. Each role declares its kinds once with [`timer_kinds!`],
//! arms them through the enum, and decodes a firing tag back into the
//! enum in `on_timer`, which matches it with no wildcard arm (clippy's
//! `wildcard_enum_match_arm` and `match_wildcard_for_single_variants`
//! are on in every role's module). A kind added to the list but not to
//! that match does not compile.

/// Declares a role's timer kinds: the enum with its tag values,
/// `arm` (the one place a kind becomes a tag) and `from_tag` (the one
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

        impl $name {
            /// Fires this kind on the calling node after `delay`.
            fn arm(self, ctx: &mut mykil_net::Context<'_>, delay: mykil_net::Duration) {
                ctx.set_timer(delay, self as u64);
            }

            /// The kind a firing `tag` was armed as; `None` for a tag
            /// this role never arms.
            fn from_tag(tag: u64) -> Option<Self> {
                match tag {
                    $($tag => Some(Self::$kind),)+
                    _ => None,
                }
            }
        }
    };
}

pub(crate) use timer_kinds;

//! Data-plane forwarding (Figure 2 of the paper).
//!
//! A sender encrypts its payload under a fresh random key `K_r` and
//! seals `K_r` under its area key. Its AC re-seals `K_r` under the
//! current area key and multicasts into the area (rekeying first when a
//! batch is pending — the "update needed flag" of Section III-E), then
//! forwards upward to its parent, re-sealed under the parent's area
//! key. Child ACs hear their parent's area multicast (they are members
//! of the parent area) and cascade downward.

use super::AreaController;
use crate::identity::ClientId;
use crate::msg::Msg;
use mykil_crypto::envelope;
use mykil_net::{Context, NodeId};

/// Cap on the dedup window for data packets.
const SEEN_CAP: usize = 4096;

impl AreaController {
    pub(crate) fn handle_data(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        origin: ClientId,
        seq: u64,
        wrapped: &[u8],
        payload: &[u8],
    ) {
        // Dedup: the same packet can arrive via several paths.
        let key = (origin.0, seq);
        if self.seen_data.contains(&key) {
            return;
        }
        self.seen_data.insert(key);
        self.seen_order.push_back(key);
        if self.seen_order.len() > SEEN_CAP {
            if let Some(old) = self.seen_order.pop_front() {
                self.seen_data.remove(&old);
            }
        }

        // Record member liveness.
        if let Some(rec) = self.durable.image.members.values_mut().find(|r| r.node == from) {
            rec.last_heard = ctx.now();
        }

        // Unwrap K_r with the key of the region the packet came from.
        let from_parent = self.durable.image.parent.as_ref().is_some_and(|p| p.node == from);
        let unwrap_keys = if from_parent {
            self.parent_keys.area_keys_with_history().cloned().collect()
        } else {
            self.own_area_keys()
        };
        self.node_keys.charge_symmetric(ctx, 1);
        let Some(k_r) = unwrap_keys
            .iter()
            .find_map(|k| envelope::open(k, wrapped).ok())
            .and_then(|b| <[u8; 16]>::try_from(b.as_slice()).ok())
        else {
            ctx.stats().bump("ac-data-unwrap-failures", 1);
            return;
        };
        let k_r = mykil_crypto::keys::SymmetricKey::from_bytes(k_r);

        // Section III-E: pending key updates are flushed *before* data
        // is forwarded, so members always decrypt with fresh keys.
        if self.update_needed {
            self.flush_key_updates(ctx);
            self.sync_backup(ctx);
        }

        // Multicast into our area under the (possibly new) area key.
        self.node_keys.charge_symmetric(ctx, 1);
        let area_key = self.durable.image.tree.area_key();
        let rewrapped = envelope::seal(&area_key, k_r.as_bytes(), ctx.rng());
        ctx.multicast(
            self.deploy.group,
            "data",
            Msg::Data {
                origin,
                seq,
                wrapped_key: rewrapped,
                payload: payload.to_vec(),
            }
            .to_bytes(),
        );
        self.last_area_mcast = ctx.now();
        self.stats.data_forwarded += 1;

        // Forward upward unless the packet came from above.
        if !from_parent {
            if let Some(parent) = self.durable.image.parent.clone() {
                if let Some(parent_key) = self.parent_keys.area_key() {
                    self.node_keys.charge_symmetric(ctx, 1);
                    let up = envelope::seal(&parent_key, k_r.as_bytes(), ctx.rng());
                    ctx.send(
                        parent.node,
                        "data",
                        Msg::Data {
                            origin,
                            seq,
                            wrapped_key: up,
                            payload: payload.to_vec(),
                        }
                        .to_bytes(),
                    );
                }
            }
        }
    }
}

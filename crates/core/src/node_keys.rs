//! One sealed box: a node's RSA key pair behind the only code that
//! seals, opens, signs or verifies a protocol frame (DESIGN.md §5).
//!
//! The registration server, the area controller and the member each
//! hold one [`NodeKeys`]. Every method charges `rsa_public` or
//! `rsa_private` at the node's key size to virtual time *before* it
//! runs the operation — that charge is the Section V-D latency model —
//! then draws what it needs from `ctx.rng()`, and counts the operation.
//! A signed frame is verified before it is opened, so a forged one
//! costs its receiver the cheap public operation and never a decrypt.

use crate::crypto_cost::CryptoCost;
use crate::identity::AreaId;
use mykil_crypto::envelope::HybridCiphertext;
use mykil_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use mykil_crypto::sha256::{Sha256, DIGEST_LEN};
use mykil_net::Context;
use std::cell::Cell;

/// A node's key pair, its CPU cost model and its RSA operation counts.
pub(crate) struct NodeKeys {
    keypair: RsaKeyPair,
    cost: CryptoCost,
    rsa_bits: usize,
    /// Decrypts and signatures made so far.
    private_ops: Cell<u64>,
    /// Encrypts and verifications made so far.
    public_ops: Cell<u64>,
}

impl NodeKeys {
    pub(crate) fn new(keypair: RsaKeyPair, cost: CryptoCost, rsa_bits: usize) -> NodeKeys {
        NodeKeys {
            keypair,
            cost,
            rsa_bits,
            private_ops: Cell::new(0),
            public_ops: Cell::new(0),
        }
    }

    /// The node's public key.
    pub(crate) fn public(&self) -> &RsaPublicKey {
        self.keypair.public()
    }

    fn charge_private(&self, ctx: &mut Context<'_>) {
        ctx.charge_compute(self.cost.rsa_private(self.rsa_bits));
        self.private_ops.set(self.private_ops.get() + 1);
    }

    fn charge_public(&self, ctx: &mut Context<'_>) {
        ctx.charge_compute(self.cost.rsa_public(self.rsa_bits));
        self.public_ops.set(self.public_ops.get() + 1);
    }

    /// Charges `ops` symmetric operations (seal, open, MAC).
    pub(crate) fn charge_symmetric(&self, ctx: &mut Context<'_>, ops: u64) {
        ctx.charge_compute(self.cost.symmetric_op.saturating_mul(ops));
    }

    /// Seals `plain` to `to`: one public operation.
    pub(crate) fn seal(
        &self,
        ctx: &mut Context<'_>,
        to: &RsaPublicKey,
        plain: &[u8],
    ) -> Option<Vec<u8>> {
        self.charge_public(ctx);
        let ct = HybridCiphertext::encrypt(to, plain, ctx.rng()).ok()?;
        Some(ct.to_bytes())
    }

    /// Seals `plain` to `to` and signs the ciphertext: one public
    /// operation, then one private. Returns `(ciphertext, signature)`.
    pub(crate) fn seal_signed(
        &self,
        ctx: &mut Context<'_>,
        to: &RsaPublicKey,
        plain: &[u8],
    ) -> Option<(Vec<u8>, Vec<u8>)> {
        let ct = self.seal(ctx, to, plain)?;
        let sig = self.sign(ctx, &ct);
        Some((ct, sig))
    }

    /// Opens a ciphertext sealed to this node: one private operation.
    pub(crate) fn open(&self, ctx: &mut Context<'_>, ct: &[u8]) -> Option<Vec<u8>> {
        self.charge_private(ctx);
        HybridCiphertext::from_bytes(ct)
            .ok()?
            .decrypt(&self.keypair)
            .ok()
    }

    /// Checks `from`'s signature over `ct`, then opens it: one public
    /// operation, and one private only for what verified.
    pub(crate) fn open_signed(
        &self,
        ctx: &mut Context<'_>,
        from: &RsaPublicKey,
        ct: &[u8],
        sig: &[u8],
    ) -> Option<Vec<u8>> {
        if !self.verify(ctx, from, ct, sig) {
            return None;
        }
        self.open(ctx, ct)
    }

    /// Signs `msg`: one private operation.
    pub(crate) fn sign(&self, ctx: &mut Context<'_>, msg: &[u8]) -> Vec<u8> {
        self.sign_digest(ctx, &Sha256::digest(msg))
    }

    /// Checks `from`'s signature over `msg`: one public operation.
    pub(crate) fn verify(
        &self,
        ctx: &mut Context<'_>,
        from: &RsaPublicKey,
        msg: &[u8],
        sig: &[u8],
    ) -> bool {
        self.verify_digest(ctx, from, &Sha256::digest(msg), sig)
    }

    /// [`Self::sign`] over a digest the caller streamed itself.
    pub(crate) fn sign_digest(&self, ctx: &mut Context<'_>, digest: &[u8; DIGEST_LEN]) -> Vec<u8> {
        self.charge_private(ctx);
        self.keypair.sign_digest(digest)
    }

    /// [`Self::verify`] over a digest the caller streamed itself.
    pub(crate) fn verify_digest(
        &self,
        ctx: &mut Context<'_>,
        from: &RsaPublicKey,
        digest: &[u8; DIGEST_LEN],
        sig: &[u8],
    ) -> bool {
        self.charge_public(ctx);
        from.verify_digest(digest, sig)
    }
}

/// What a `Takeover` signature covers: the area taken over.
pub(crate) fn takeover_signed_bytes(area: AreaId) -> Vec<u8> {
    area.0.to_be_bytes().to_vec()
}

/// What a `Demote` signature covers: the area and the winning takeover
/// epoch.
pub(crate) fn demote_signed_bytes(area: AreaId, takeover_epoch: u64) -> Vec<u8> {
    [&area.0.to_be_bytes()[..], &takeover_epoch.to_be_bytes()].concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::area::AreaController;
    use crate::config::MykilConfig;
    use crate::group::{GroupBuilder, GroupHandle};
    use crate::member::Member;
    use mykil_crypto::drbg::Drbg;
    use mykil_net::{Duration, LatencyModel, Node, NodeId, Simulator, Time};

    impl NodeKeys {
        /// `(private, public)` RSA operations charged so far.
        pub(crate) fn ops(&self) -> (u64, u64) {
            (self.private_ops.get(), self.public_ops.get())
        }

        /// The key pair itself, for tests that forge a peer's frames.
        pub(crate) fn keypair(&self) -> &RsaKeyPair {
            &self.keypair
        }
    }

    /// Records when each message reaches it.
    #[derive(Default)]
    struct Probe {
        arrivals: Vec<Time>,
    }

    impl Node for Probe {
        fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {
            self.arrivals.push(ctx.now());
        }
    }

    fn keys(bits: usize, seed: u64) -> NodeKeys {
        // Real keys start at 768 bits (the smallest OAEP block that
        // holds a wrapped key); `bits` sizes the cost model alone.
        let pair = RsaKeyPair::generate(bits.max(768), &mut Drbg::from_seed(seed)).expect("keygen");
        NodeKeys::new(pair, CryptoCost::pentium3(), bits)
    }

    /// Two probes on a network that adds no delay of its own, so an
    /// arrival time is exactly the compute its sender was charged.
    fn two_probes() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::with_latency(1, LatencyModel::instant());
        let a = sim.add_node(Probe::default());
        let b = sim.add_node(Probe::default());
        (sim, a, b)
    }

    #[test]
    fn seal_then_open_round_trips_and_counts_one_op_each() {
        let (alice, bob) = (keys(512, 1), keys(512, 2));
        let (mut sim, a, _) = two_probes();
        sim.invoke(a, |_: &mut Probe, ctx| {
            let ct = alice
                .seal(ctx, bob.public(), b"nonce and all")
                .expect("seals");
            assert_eq!(bob.open(ctx, &ct).as_deref(), Some(&b"nonce and all"[..]));
            assert_eq!(alice.open(ctx, &ct), None, "sealed to bob, not to alice");
        });
        assert_eq!(alice.ops(), (1, 1));
        assert_eq!(bob.ops(), (1, 0));
    }

    #[test]
    fn a_flipped_ciphertext_byte_fails_open() {
        let (alice, bob) = (keys(512, 3), keys(512, 4));
        let (mut sim, a, _) = two_probes();
        sim.invoke(a, |_: &mut Probe, ctx| {
            let ct = alice.seal(ctx, bob.public(), b"payload").expect("seals");
            for at in [4, ct.len() / 2, ct.len() - 1] {
                let mut bad = ct.clone();
                bad[at] ^= 1;
                assert_eq!(bob.open(ctx, &bad), None, "byte {at}");
            }
        });
    }

    /// Verify precedes decrypt: a forged signature costs its receiver
    /// the public operation only, in operations and in virtual time.
    #[test]
    fn open_signed_charges_a_forgery_one_public_op_and_no_private_op() {
        let (alice, bob, mallory) = (keys(512, 5), keys(512, 6), keys(512, 7));
        let (mut sim, a, b) = two_probes();
        sim.invoke(a, |_: &mut Probe, ctx| {
            let (ct, sig) = mallory
                .seal_signed(ctx, bob.public(), b"let me in")
                .expect("seals");
            assert_eq!(bob.open_signed(ctx, alice.public(), &ct, &sig), None);
            ctx.send(b, "probe", Vec::new());
            let opened = bob.open_signed(ctx, mallory.public(), &ct, &sig);
            assert_eq!(opened.as_deref(), Some(&b"let me in"[..]));
        });
        assert_eq!(
            bob.ops(),
            (1, 2),
            "one verify for the forgery, verify + decrypt after"
        );
        sim.run_for(Duration::from_secs(1));
        // Mallory's seal and signature, then bob's lone verify.
        let cost = CryptoCost::pentium3();
        let charged = cost.rsa_public(512) + cost.rsa_private(512) + cost.rsa_public(512);
        assert_eq!(sim.node::<Probe>(b).arrivals, [Time::ZERO + charged]);
    }

    #[test]
    fn a_send_after_seal_signed_waits_one_public_and_one_private_op() {
        for bits in [512, 768] {
            let (alice, bob) = (keys(bits, 8), keys(bits, 9));
            let (mut sim, a, b) = two_probes();
            sim.invoke(a, |_: &mut Probe, ctx| {
                ctx.send(b, "probe", Vec::new());
                alice
                    .seal_signed(ctx, bob.public(), b"step 4")
                    .expect("seals");
                ctx.send(b, "probe", Vec::new());
            });
            sim.run_for(Duration::from_secs(1));
            let cost = CryptoCost::pentium3();
            let charged = cost.rsa_public(bits) + cost.rsa_private(bits);
            assert!(charged > Duration::ZERO);
            assert_eq!(
                sim.node::<Probe>(b).arrivals,
                [Time::ZERO, Time::ZERO + charged],
                "{bits}"
            );
            assert_eq!(alice.ops(), (1, 1));
        }
    }

    #[test]
    fn failover_signatures_cover_big_endian_area_and_epoch() {
        assert_eq!(takeover_signed_bytes(AreaId(0x0102_0304)), [1, 2, 3, 4]);
        assert_eq!(
            demote_signed_bytes(AreaId(7), 0x0a0b),
            [0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0x0a, 0x0b]
        );
    }

    /// `(private, public)` operations of every node of the deployment.
    fn total_ops(g: &GroupHandle) -> (u64, u64) {
        let controllers = g.primaries.iter().chain(&g.backups);
        let nodes = std::iter::once(g.registration_server().node_keys.ops())
            .chain(controllers.map(|&n| g.sim.node::<AreaController>(n).node_keys.ops()))
            .chain(
                g.members
                    .iter()
                    .map(|&m| g.sim.node::<Member>(m).node_keys.ops()),
            );
        nodes.fold((0, 0), |sum, ops| (sum.0 + ops.0, sum.1 + ops.1))
    }

    /// Steps the simulation until `done`, then returns the operations
    /// made since `before`: the handshake's own, without the rekey
    /// traffic that follows it.
    fn ops_until(
        g: &mut GroupHandle,
        before: (u64, u64),
        done: impl Fn(&GroupHandle) -> bool,
    ) -> (u64, u64) {
        while !done(g) {
            assert!(g.sim.step(), "the handshake never completed");
        }
        let after = total_ops(g);
        (after.0 - before.0, after.1 - before.1)
    }

    /// The Section V-D latency model counts RSA operations; this pins
    /// the counts the protocol really makes (`mykil_analysis::latency`
    /// holds the critical-path share of each).
    #[test]
    fn handshakes_make_exactly_the_modelled_rsa_operations() {
        use mykil_analysis::latency::{JOIN_OPS, REJOIN_FAST_OPS, REJOIN_OPS};
        // Flushes only on the timer, an hour away: nothing but the
        // handshake runs.
        let cfg = MykilConfig {
            rekey_interval: Duration::from_secs(3600),
            ..MykilConfig::test()
        };

        // The 7-step join into an empty area: 9 + 9 in all. The
        // controller's verify + decrypt of step 4 overlap the step-5
        // leg, so the critical path is one of each shorter.
        let mut g = GroupBuilder::new(61).config(cfg).areas(1).build();
        assert_eq!(total_ops(&g), (0, 0));
        let m = g.register_member_manual(1);
        g.sim.invoke(m, |m: &mut Member, ctx| m.start_join(ctx));
        let join = ops_until(&mut g, (0, 0), |g| g.is_member(m));
        assert_eq!(join, (9, 9));
        assert_eq!((JOIN_OPS.private_ops + 1, JOIN_OPS.public_ops + 1), (9, 9));

        for (verify_departure, modelled) in [(true, REJOIN_OPS), (false, REJOIN_FAST_OPS)] {
            let cfg = MykilConfig {
                verify_departure_on_rejoin: verify_departure,
                ..cfg
            };
            let mut g = GroupBuilder::new(62).config(cfg).areas(2).build();
            let m = g.register_member_manual(1);
            g.sim.invoke(m, |m: &mut Member, ctx| m.start_join(ctx));
            g.settle();
            assert_eq!(g.member(m).area().map(|a| a.0), Some(0));
            assert!(g.sim.invoke(m, |m: &mut Member, ctx| m.leave(ctx)));
            g.settle();
            let before = total_ops(&g);
            assert!(g.move_member(m, 1));
            let rejoin = ops_until(&mut g, before, |g| g.is_member(m));
            // Every operation of the rejoin is on its critical path.
            let modelled = (modelled.private_ops as u64, modelled.public_ops as u64);
            assert_eq!(rejoin, modelled, "verify_departure={verify_departure}");
        }
    }
}

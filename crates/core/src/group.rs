//! Deployment harness: builds a complete Mykil group in the simulator.
//!
//! [`GroupBuilder`] wires a registration server, one area controller per
//! area (plus optional backups), the area multicast groups, and the
//! inter-area tree, then hands back a [`GroupHandle`] with convenience
//! operations — register members, multicast data, move members, crash
//! controllers — used by the examples, integration tests and benches.

use crate::area::{AcDeployment, AreaController, ParentLink, Role};
use crate::auth::{AuthDb, InMemoryAuthDb};
use crate::config::{BatchPolicy, MykilConfig, RejoinPolicy};
use crate::crypto_cost::CryptoCost;
use crate::directory::{AcDirectory, AcInfo};
use crate::identity::{AreaId, DeviceId};
use crate::member::{Member, MemberPhase};
use crate::registration::RegistrationServer;
use mykil_crypto::drbg::Drbg;
use mykil_crypto::keys::SymmetricKey;
use mykil_crypto::rsa::RsaKeyPair;
use mykil_net::{
    Duration, LatencyModel, NodeId, Simulator, StableStore, Stats, StorageFactory, Time,
};

/// Configures and constructs a simulated Mykil deployment.
pub struct GroupBuilder {
    seed: u64,
    cfg: MykilConfig,
    cost: CryptoCost,
    latency: LatencyModel,
    areas: usize,
    key_bits: usize,
    replicated: bool,
    auth: Option<Box<dyn AuthDb>>,
    storage: Option<StorageFactory>,
}

impl std::fmt::Debug for GroupBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupBuilder")
            .field("seed", &self.seed)
            .field("areas", &self.areas)
            .field("key_bits", &self.key_bits)
            .field("replicated", &self.replicated)
            .finish_non_exhaustive()
    }
}

impl GroupBuilder {
    /// Starts a builder with test-sized defaults (768-bit keys, short
    /// timers, LAN latency, no replication).
    pub fn new(seed: u64) -> GroupBuilder {
        GroupBuilder {
            seed,
            cfg: MykilConfig::test(),
            cost: CryptoCost::pentium3(),
            latency: LatencyModel::lan(),
            areas: 1,
            key_bits: 768,
            replicated: false,
            auth: None,
            storage: None,
        }
    }

    /// Replaces the authorization backend (default: admit everyone for
    /// the configured ticket validity).
    pub fn auth(mut self, auth: Box<dyn AuthDb>) -> Self {
        self.auth = Some(auth);
        self
    }

    /// Sets the RSA modulus size. Values below 768 bits are used for
    /// the virtual cost model only; actual keys are generated at 768
    /// bits minimum (the smallest size whose OAEP block fits a wrapped
    /// symmetric key).
    pub fn rsa_bits(mut self, bits: usize) -> Self {
        self.cfg.rsa_bits = bits;
        self.key_bits = bits.max(768);
        self
    }

    /// Number of areas (one controller each).
    pub fn areas(mut self, areas: usize) -> Self {
        self.areas = areas.max(1);
        self
    }

    /// Replaces the whole protocol configuration.
    pub fn config(mut self, cfg: MykilConfig) -> Self {
        self.cfg = cfg;
        self.key_bits = self.cfg.rsa_bits.max(768);
        self
    }

    /// Sets only the *virtual* RSA cost model (actual keys keep their
    /// configured size) — used to model the paper's 2048-bit timings
    /// without paying 2048-bit keygen at build time.
    pub fn virtual_rsa_bits(mut self, bits: usize) -> Self {
        self.cfg.rsa_bits = bits;
        self
    }

    /// Disables rejoin steps 4-5 (departure verification), reproducing
    /// the paper's fast-rejoin variant.
    pub fn skip_departure_check(mut self) -> Self {
        self.cfg.verify_departure_on_rejoin = false;
        self
    }

    /// Sets the rejoin partition policy.
    pub fn rejoin_policy(mut self, policy: RejoinPolicy) -> Self {
        self.cfg.rejoin_policy = policy;
        self
    }

    /// Sets the rekey batching policy.
    pub fn batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.cfg.batch_policy = policy;
        self
    }

    /// Selects the auxiliary-tree key backend for every area controller
    /// (default: [`mykil_tree::TreeBackend::Explicit`]).
    pub fn tree_backend(mut self, backend: mykil_tree::TreeBackend) -> Self {
        self.cfg.tree = self.cfg.tree.with_backend(backend);
        self
    }

    /// Sets the virtual crypto cost model.
    pub fn cost(mut self, cost: CryptoCost) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the network latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Adds a backup controller per area (Section IV-C replication).
    pub fn replicated(mut self, on: bool) -> Self {
        self.replicated = on;
        self
    }

    /// Replaces the stable-storage backend for every node (default:
    /// the in-memory [`mykil_net::SimStore`]). The factory runs once
    /// per node as the deployment is laid out; file-backed deployments
    /// return a [`FileStore`](mykil_net::FileStore). The simulator puts
    /// whatever it returns behind its fault engine, so the chaos
    /// storage verbs apply to every backend.
    pub fn storage_factory(
        mut self,
        make: impl FnMut(NodeId) -> Box<dyn StableStore> + Send + 'static,
    ) -> Self {
        self.storage = Some(Box::new(make));
        self
    }

    /// Builds the deployment.
    pub fn build(self) -> GroupHandle {
        let mut keyrng = Drbg::from_seed(self.seed ^ 0x6b65_7967_656e);
        let mut sim = Simulator::with_latency(self.seed, self.latency.clone());
        if let Some(make) = self.storage {
            sim.set_storage_factory(make);
        }

        #[expect(clippy::expect_used, reason = "deployment harness, not peer input")]
        let rs_pair = RsaKeyPair::generate(self.key_bits, &mut keyrng).expect("rs keygen");
        #[expect(clippy::expect_used, reason = "deployment harness, not peer input")]
        let ac_pairs: Vec<RsaKeyPair> = (0..self.areas)
            .map(|_| RsaKeyPair::generate(self.key_bits, &mut keyrng).expect("ac keygen"))
            .collect();
        #[expect(clippy::expect_used, reason = "deployment harness, not peer input")]
        let backup_pairs: Vec<RsaKeyPair> = if self.replicated {
            (0..self.areas)
                .map(|_| RsaKeyPair::generate(self.key_bits, &mut keyrng).expect("backup keygen"))
                .collect()
        } else {
            Vec::new()
        };
        let k_shared = SymmetricKey::random(&mut keyrng);

        // Node ids are assigned sequentially by the simulator; lay them
        // out so the directory can be built before the nodes exist:
        // 0 = RS, 1..=areas = primaries, then backups.
        let rs_node = NodeId::from_index(0);
        let ac_node = |i: usize| NodeId::from_index(1 + i);
        let backup_node = |i: usize| NodeId::from_index(1 + self.areas + i);

        let groups: Vec<_> = (0..self.areas).map(|_| sim.create_group()).collect();

        let directory = AcDirectory {
            entries: (0..self.areas)
                .map(|i| AcInfo {
                    area: AreaId(i as u32),
                    node: ac_node(i).index() as u32,
                    pubkey: ac_pairs[i].public().to_bytes(),
                })
                .collect(),
        };
        let backups_dir = AcDirectory {
            entries: backup_pairs
                .iter()
                .enumerate()
                .map(|(i, pair)| AcInfo {
                    area: AreaId(i as u32),
                    node: backup_node(i).index() as u32,
                    pubkey: pair.public().to_bytes(),
                })
                .collect(),
        };

        let parent_link = |area: usize| -> ParentLink {
            ParentLink {
                node: ac_node(area),
                area: AreaId(area as u32),
                group: groups[area],
            }
        };

        // Area 0 is the root; area i hangs under (i-1)/2 (a binary tree
        // of areas, mapping naturally to network topology — Section II).
        let mut acs: Vec<AreaController> = (0..self.areas)
            .map(|i| {
                let parent = (i > 0).then(|| parent_link((i - 1) / 2));
                // Failover candidates are strictly root-ward (lower area
                // ids): re-parenting can then never form a cycle among
                // surviving controllers.
                let preferred: Vec<ParentLink> = (0..i)
                    .filter(|&p| Some(p) != parent.as_ref().map(|l| l.area.0 as usize))
                    .map(parent_link)
                    .collect();
                let deploy = AcDeployment {
                    area: AreaId(i as u32),
                    group: groups[i],
                    parent,
                    role: Role::Primary,
                    rs_node,
                    directory: directory.clone(),
                    backups: backups_dir.clone(),
                    preferred_parents: preferred,
                };
                AreaController::new(
                    self.cfg,
                    self.cost,
                    ac_pairs[i].clone(),
                    rs_pair.public().clone(),
                    k_shared.clone(),
                    deploy,
                    self.seed ^ (0xA5A5 + i as u64),
                )
            })
            .collect();

        // Deployment-time child enrollment (runtime re-parenting uses
        // the signed area-join exchange instead).
        for i in 1..self.areas {
            let p = (i - 1) / 2;
            let (low, high) = acs.split_at_mut(i.max(p));
            let (parent, child) = if p < i {
                (&mut low[p], &mut high[0])
            } else {
                unreachable!("parent index precedes child")
            };
            parent.enroll_child_static(child, ac_node(i), &mut keyrng);
        }
        // Each enrollment rotates the parent's path keys, so seed every
        // child's parent-area view with the final deployment-time paths.
        for i in 1..self.areas {
            let p = (i - 1) / 2;
            let member = mykil_tree::MemberId(crate::area::AC_MEMBER_BASE + i as u64);
            let mut path = Vec::new();
            #[expect(
                clippy::expect_used,
                reason = "deployment harness: children enrolled in the loop above"
            )]
            acs[p]
                .tree()
                .path_keys_into(member, &mut path)
                .expect("child enrolled above");
            acs[i].seed_parent_tree_keys(&path);
        }

        let backups: Vec<AreaController> = (0..if self.replicated { self.areas } else { 0 })
            .map(|i| {
                let parent = (i > 0).then(|| parent_link((i - 1) / 2));
                let deploy = AcDeployment {
                    area: AreaId(i as u32),
                    group: groups[i],
                    parent,
                    role: Role::Backup,
                    rs_node,
                    directory: directory.clone(),
                    backups: backups_dir.clone(),
                    preferred_parents: (0..i).map(parent_link).collect(),
                };
                AreaController::new(
                    self.cfg,
                    self.cost,
                    backup_pairs[i].clone(),
                    rs_pair.public().clone(),
                    k_shared.clone(),
                    deploy,
                    self.seed ^ (0xB5B5 + i as u64),
                )
            })
            .collect();

        let auth = self
            .auth
            .unwrap_or_else(|| Box::new(InMemoryAuthDb::allow_all(self.cfg.ticket_validity)));
        let mut rs = RegistrationServer::new(
            self.cfg,
            self.cost,
            rs_pair.clone(),
            auth,
            directory.clone(),
        );
        for (i, pair) in backup_pairs.iter().enumerate() {
            rs.register_backup(AreaId(i as u32), pair.public().clone());
        }

        let rs_id = sim.add_node(rs);
        assert_eq!(rs_id, rs_node, "node layout drifted");
        let mut primary_ids = Vec::new();
        for (i, ac) in acs.drain(..).enumerate() {
            let id = sim.add_node(ac);
            assert_eq!(id, ac_node(i), "node layout drifted");
            primary_ids.push(id);
        }
        let mut backup_ids = Vec::new();
        for (i, b) in backups.into_iter().enumerate() {
            let id = sim.add_node(b);
            assert_eq!(id, backup_node(i), "node layout drifted");
            backup_ids.push(id);
        }

        GroupHandle {
            sim,
            cfg: self.cfg,
            cost: self.cost,
            key_bits: self.key_bits,
            rs_node,
            rs_pub: rs_pair,
            primaries: primary_ids,
            backups: backup_ids,
            keyrng,
            next_device: 0,
            members: Vec::new(),
        }
    }
}

/// A running Mykil deployment.
pub struct GroupHandle {
    /// The underlying simulator (full access for advanced scenarios).
    pub sim: Simulator,
    cfg: MykilConfig,
    cost: CryptoCost,
    key_bits: usize,
    rs_node: NodeId,
    rs_pub: RsaKeyPair,
    /// Primary controller node per area.
    pub primaries: Vec<NodeId>,
    /// Backup controller node per area (empty when unreplicated).
    pub backups: Vec<NodeId>,
    keyrng: Drbg,
    next_device: u64,
    /// All member nodes registered through this handle.
    pub members: Vec<NodeId>,
}

impl std::fmt::Debug for GroupHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupHandle")
            .field("areas", &self.primaries.len())
            .field("members", &self.members.len())
            .field("now", &self.sim.now())
            .finish_non_exhaustive()
    }
}

impl GroupHandle {
    /// Registers a new member (auto-joining); returns its node id.
    pub fn register_member(&mut self, device_seed: u64) -> NodeId {
        self.add_member(device_seed, true)
    }

    /// Registers a member that only acts when driven via
    /// [`Simulator::invoke`] (no auto join/rejoin).
    pub fn register_member_manual(&mut self, device_seed: u64) -> NodeId {
        self.add_member(device_seed, false)
    }

    /// Adds `count` manual members (see [`Self::register_member_manual`])
    /// whose key pairs cycle over `pool` pairs drawn from
    /// `Drbg::from_seed(seed)` at the group's key size, so a large
    /// group costs `pool` keygens instead of `count`. Member `i` of the
    /// call presents `subscriber-<i>`. Returns the nodes in order.
    #[doc(hidden)]
    pub fn add_pooled_members(&mut self, count: usize, pool: usize, seed: u64) -> Vec<NodeId> {
        let mut keyrng = Drbg::from_seed(seed);
        #[expect(clippy::expect_used, reason = "deployment harness, not peer input")]
        let pool: Vec<RsaKeyPair> = (0..pool)
            .map(|_| RsaKeyPair::generate(self.key_bits, &mut keyrng).expect("member keygen"))
            .collect();
        (0..count)
            .map(|i| {
                let member = Member::new(
                    self.cfg,
                    self.cost,
                    pool[i % pool.len()].clone(),
                    self.rs_pub.public().clone(),
                    self.rs_node,
                    DeviceId::from_seed(self.next_device),
                    format!("subscriber-{i}").into_bytes(),
                    false,
                );
                self.next_device += 1;
                let id = self.sim.add_node(member);
                self.members.push(id);
                id
            })
            .collect()
    }

    fn add_member(&mut self, device_seed: u64, auto: bool) -> NodeId {
        #[expect(clippy::expect_used, reason = "deployment harness, not peer input")]
        let pair = RsaKeyPair::generate(self.key_bits, &mut self.keyrng).expect("member keygen");
        let device = DeviceId::from_seed(device_seed.wrapping_add(self.next_device));
        self.next_device += 1;
        let member = Member::new(
            self.cfg,
            self.cost,
            pair,
            self.rs_pub.public().clone(),
            self.rs_node,
            device,
            format!("subscriber-{device_seed}").into_bytes(),
            auto,
        );
        let id = self.sim.add_node(member);
        self.members.push(id);
        id
    }

    /// Runs the simulation for five virtual seconds — enough for joins,
    /// rekeys and data to settle under test timers.
    pub fn settle(&mut self) {
        self.run_for(Duration::from_secs(5));
    }

    /// Runs the simulation for a span of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        self.sim.run_for(d);
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Whether the member at `node` is an active group member.
    pub fn is_member(&self, node: NodeId) -> bool {
        self.sim.node::<Member>(node).is_active()
    }

    /// Read access to a member.
    pub fn member(&self, node: NodeId) -> &Member {
        self.sim.node::<Member>(node)
    }

    /// Read access to an area's primary controller.
    pub fn ac(&self, area: usize) -> &AreaController {
        self.sim.node::<AreaController>(self.primaries[area])
    }

    /// Read access to an area's backup controller.
    pub fn backup(&self, area: usize) -> &AreaController {
        self.sim.node::<AreaController>(self.backups[area])
    }

    /// Has `node` multicast `payload` to the group.
    pub fn send_data(&mut self, node: NodeId, payload: &[u8]) -> bool {
        self.sim
            .invoke(node, |m: &mut Member, ctx| m.send_data(ctx, payload))
    }

    /// Payloads successfully received and decrypted by a member.
    pub fn received_data(&self, node: NodeId) -> Vec<Vec<u8>> {
        self.sim.node::<Member>(node).received.clone()
    }

    /// Triggers a rejoin of `member` toward the controller of `area`.
    pub fn move_member(&mut self, member: NodeId, area: usize) -> bool {
        let target = self.primaries[area];
        self.sim
            .invoke(member, |m: &mut Member, ctx| m.start_rejoin(ctx, target))
    }

    /// Crashes the primary controller of an area.
    pub fn crash_ac(&mut self, area: usize) {
        self.sim.crash(self.primaries[area]);
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &Stats {
        self.sim.stats()
    }

    /// The member's current phase (diagnostics).
    pub fn member_phase(&self, node: NodeId) -> MemberPhase {
        self.sim.node::<Member>(node).phase().clone()
    }

    /// The registration server's node id (e.g. to crash or restart it).
    pub fn rs(&self) -> NodeId {
        self.rs_node
    }

    /// Read access to the registration server.
    pub fn registration_server(&self) -> &crate::registration::RegistrationServer {
        self.sim
            .node::<crate::registration::RegistrationServer>(self.rs_node)
    }

    /// Registers a member presenting specific authorization bytes
    /// (default members present `subscriber-<seed>`).
    pub fn register_member_with_auth(&mut self, device_seed: u64, auth_info: &[u8]) -> NodeId {
        #[expect(clippy::expect_used, reason = "deployment harness, not peer input")]
        let pair = RsaKeyPair::generate(self.key_bits, &mut self.keyrng).expect("member keygen");
        let device = DeviceId::from_seed(device_seed.wrapping_add(self.next_device));
        self.next_device += 1;
        let member = Member::new(
            self.cfg,
            self.cost,
            pair,
            self.rs_pub.public().clone(),
            self.rs_node,
            device,
            auth_info.to_vec(),
            true,
        );
        let id = self.sim.add_node(member);
        self.members.push(id);
        id
    }
}

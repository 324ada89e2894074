//! Client state is created on first write: the read-only accessors must
//! return exactly what a fully allocated machine returns, on touched and
//! untouched clients alike.

use anton_net::{
    ClientAddr, ClientKind, CounterId, Ctx, Fabric, NodeProgram, Packet, Payload, ProgEvent,
    Simulation,
};
use anton_obs::MetricsRegistry;
use anton_topo::{NodeId, TorusDims};

const C1: CounterId = CounterId(3);
const C2: CounterId = CounterId(5);
const ADDR: u64 = 0x40;

fn at(node: u32, client: ClientKind) -> ClientAddr {
    ClientAddr::new(NodeId(node), client)
}

/// Node 0 sends a counted write to node 1, a counted accumulate to
/// node 2 and a FIFO message to node 3. Node 1's watch fires, node 2's
/// waits for a second accumulate that never comes, and node 4 watches
/// a counter nothing targets.
struct Script;

impl NodeProgram for Script {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        let ProgEvent::Start = pe else { return };
        let me = at(node.0, ClientKind::Slice(0));
        match node.0 {
            0 => {
                let write = Payload::F64s(vec![1.5]);
                ctx.send(
                    Packet::write(me, at(1, ClientKind::Slice(0)), ADDR, write).with_counter(C1),
                );
                let acc = Packet::accumulate(me, at(2, ClientKind::Accum(0)), 0, vec![3, -4]);
                ctx.send(acc.with_counter(C1));
                ctx.send(Packet::fifo(
                    me,
                    at(3, ClientKind::Slice(1)),
                    Payload::Empty,
                ));
            }
            1 => ctx.watch_counter(me, C1, 1),
            2 => ctx.watch_counter(at(2, ClientKind::Accum(0)), C1, 2),
            4 => ctx.watch_counter(at(4, ClientKind::Htis), C2, 1),
            _ => {}
        }
    }
}

#[test]
fn read_only_accessors_match_a_fully_allocated_machine() {
    let mut sim = Simulation::new(Fabric::new(TorusDims::new(2, 2, 2)), |_| Script);
    sim.run();
    let f = &sim.world.fabric;

    assert_eq!(
        f.stuck_watches(),
        vec![
            (NodeId(2), ClientKind::Accum(0), C1, 2, 1),
            (NodeId(4), ClientKind::Htis, C2, 1, 0),
        ]
    );
    assert_eq!(f.counter_read(at(1, ClientKind::Slice(0)), C1), 1);
    assert_eq!(f.counter_read(at(2, ClientKind::Accum(0)), C1), 1);
    assert_eq!(
        f.mem_read(at(1, ClientKind::Slice(0)), ADDR),
        Some(&Payload::F64s(vec![1.5]))
    );
    assert_eq!(
        f.accum_read(at(2, ClientKind::Accum(0)), 0, 3),
        vec![3, -4, 0]
    );

    // Untouched clients read as their initial state.
    for node in [5, 6, 7] {
        for client in ClientKind::ALL {
            assert_eq!(f.counter_read(at(node, client), C1), 0);
            assert_eq!(f.mem_read(at(node, client), ADDR), None);
            assert_eq!(f.fifo_backpressure_events(at(node, client)), 0);
        }
        assert_eq!(
            f.accum_read(at(node, ClientKind::Accum(1)), 8, 2),
            vec![0, 0]
        );
    }

    let mut reg = MetricsRegistry::new();
    f.export_metrics(&mut reg);
    let snap = reg.snapshot();
    assert_eq!(snap.get("mem.fifo_high_watermark"), Some(1.0));
    assert_eq!(snap.get("mem.fifo_backpressure_events"), Some(0.0));
    assert_eq!(snap.get("mem.counter_increments"), Some(2.0));
    assert_eq!(snap.get("mem.counter_watch_fires"), Some(1.0));
    assert_eq!(snap.get("net.packets_delivered"), Some(3.0));

    // Only the written clients hold state.
    assert_eq!(
        f.touched_clients().collect::<Vec<_>>(),
        vec![
            at(1, ClientKind::Slice(0)),
            at(2, ClientKind::Accum(0)),
            at(3, ClientKind::Slice(1)),
            at(4, ClientKind::Htis),
        ]
    );
}

#[test]
#[should_panic]
fn an_out_of_range_counter_panics_on_an_untouched_client() {
    let f = Fabric::new(TorusDims::new(2, 2, 2));
    f.counter_read(at(7, ClientKind::Slice(0)), CounterId(u16::MAX));
}

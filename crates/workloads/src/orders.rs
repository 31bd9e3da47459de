//! An order-fulfilment workload: a second realistic business process in the
//! style of the paper's examples (quote, reserve stock, invoice, refund),
//! exercising an artifact relation (the order backlog) and a two-level
//! hierarchy.

use has_arith::Rational;
use has_ltl::hltl::HltlBuilder;
use has_ltl::HltlFormula;
use has_model::{
    ArtifactSystem, Condition, ServiceRef, SetUpdate, SystemBuilder, TaskId, Term, VarId,
};

/// Handles to the order-fulfilment system.
#[derive(Clone, Debug)]
pub struct OrdersSystem {
    /// The artifact system.
    pub system: ArtifactSystem,
    /// The root task (`ProcessOrders`).
    pub root: TaskId,
    /// The quoting subtask.
    pub quote: TaskId,
    /// The shipping subtask.
    pub ship: TaskId,
    /// Root `state` variable.
    pub state: VarId,
    /// Root `item` variable.
    pub item: VarId,
}

/// Order states.
pub mod state {
    /// No active order.
    pub const IDLE: i64 = 0;
    /// A quote has been produced.
    pub const QUOTED: i64 = 1;
    /// The order has been shipped.
    pub const SHIPPED: i64 = 2;
}

/// Builds the order-fulfilment system.
///
/// The root task manages a backlog of orders in its artifact relation; the
/// `Quote` subtask selects a catalog item and price; the `Ship` subtask marks
/// the order shipped, but only a quoted order may ship.
pub fn order_fulfilment() -> OrdersSystem {
    let mut b = SystemBuilder::new("order-fulfilment");
    b.relation("ITEMS", &["price"], &[]);
    let items = b.relation_id("ITEMS").unwrap();

    let root = b.root_task("ProcessOrders");
    let item = b.id_var(root, "item");
    let state_var = b.num_var(root, "state");
    let price = b.num_var(root, "price");
    b.artifact_relation(root, "BACKLOG", &[item]);

    let idle = || Condition::eq_const(state_var, Rational::from_int(state::IDLE));
    let quoted = || Condition::eq_const(state_var, Rational::from_int(state::QUOTED));

    b.internal_service(
        root,
        "EnqueueOrder",
        Condition::not_null(item),
        Condition::is_null(item).and(Condition::eq_const(
            state_var,
            Rational::from_int(state::IDLE),
        )),
        SetUpdate::Insert,
    );
    b.internal_service(
        root,
        "DequeueOrder",
        idle(),
        Condition::eq_const(state_var, Rational::from_int(state::IDLE)),
        SetUpdate::Retrieve,
    );

    // Quote subtask: picks an item and its catalog price.
    let quote = b.child_task(root, "Quote");
    let q_item = b.id_var(quote, "q_item");
    let q_price = b.num_var(quote, "q_price");
    let q_state = b.num_var(quote, "q_state");
    b.open_when(quote, idle());
    b.internal_service(
        quote,
        "PriceItem",
        Condition::True,
        Condition::relation(items, vec![Term::Var(q_item), Term::Var(q_price)]).and(
            Condition::eq_const(q_state, Rational::from_int(state::QUOTED)),
        ),
        SetUpdate::None,
    );
    b.close_when(quote, Condition::not_null(q_item));
    b.map_output(quote, item, q_item);
    b.map_output(quote, price, q_price);
    b.map_output(quote, state_var, q_state);

    // Ship subtask: only a quoted order may ship.
    let ship = b.child_task(root, "Ship");
    let s_item = b.id_var(ship, "s_item");
    let s_state = b.num_var(ship, "s_state");
    b.open_when(ship, quoted().and(Condition::not_null(item)));
    b.map_input(ship, s_item, item);
    b.internal_service(
        ship,
        "Dispatch",
        Condition::not_null(s_item),
        Condition::eq_const(s_state, Rational::from_int(state::SHIPPED)),
        SetUpdate::None,
    );
    b.close_when(
        ship,
        Condition::eq_const(s_state, Rational::from_int(state::SHIPPED)),
    );
    b.map_output(ship, state_var, s_state);

    let system = b.build().expect("order fulfilment system is well-formed");
    OrdersSystem {
        system,
        root,
        quote,
        ship,
        state: state_var,
        item,
    }
}

/// "An order is only shipped after it has been quoted": globally, opening the
/// `Ship` subtask implies the root state is `QUOTED`.
pub fn ship_after_quote_property(o: &OrdersSystem) -> HltlFormula {
    let mut hb = HltlBuilder::new(o.root);
    let open_ship = hb.service(ServiceRef::Opening(o.ship));
    let quoted = hb.condition(Condition::eq_const(
        o.state,
        Rational::from_int(state::QUOTED),
    ));
    hb.finish(open_ship.implies(quoted).globally())
}

/// A deliberately false property: "the backlog is never used", i.e. the
/// `EnqueueOrder` service never fires.
pub fn never_enqueue_property(o: &OrdersSystem) -> HltlFormula {
    let mut hb = HltlBuilder::new(o.root);
    let enqueue = hb.service(ServiceRef::Internal(o.root, 0));
    hb.finish(enqueue.not().globally())
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_model::validate;

    #[test]
    fn system_builds_and_validates() {
        let o = order_fulfilment();
        assert!(validate(&o.system).is_ok());
        assert_eq!(o.system.schema.task_count(), 3);
        assert!(o.system.schema.uses_artifact_relations());
        assert!(!o.system.schema.uses_arithmetic());
    }

    #[test]
    fn properties_are_well_formed() {
        let o = order_fulfilment();
        assert!(ship_after_quote_property(&o).validate(&o.system).is_ok());
        assert!(never_enqueue_property(&o).validate(&o.system).is_ok());
    }
}

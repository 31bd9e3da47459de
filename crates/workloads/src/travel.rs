//! The paper's running example (Appendix A): a travel-booking process.
//!
//! Six tasks mirror Figure 1:
//!
//! ```text
//! ManageTrips
//! ├── AddFlight
//! ├── AddHotel ── AlsoBookHotel
//! ├── BookInitialTrip
//! └── Cancel
//! ```
//!
//! The customer assembles a trip (flight and/or hotel), may store and
//! retrieve candidate trips in the `TRIPS` artifact relation, books the trip,
//! may add a hotel after paying for the flight (receiving a discount when the
//! hotel is compatible with the flight), and may cancel.
//!
//! Two variants are provided. In [`TravelVariant::Buggy`], `Cancel` may be
//! opened while `AddHotel` is still running — exactly the concurrency the
//! paper points out — so the flight can be cancelled without the discount
//! penalty even though a discounted hotel is being added. In
//! [`TravelVariant::Fixed`], `Cancel` requires the hotel reservation (if any)
//! to be visible in the parent before it can open, restoring the policy of
//! Appendix A.2.

use has_arith::{LinExpr, LinearConstraint, Rational};
use has_ltl::hltl::HltlBuilder;
use has_ltl::HltlFormula;
use has_model::{ArtifactSystem, Condition, ServiceRef, SetUpdate, SystemBuilder, Term, VarId};

/// Status constants used by the specification (the paper's string statuses
/// mapped to numeric codes, as Appendix A suggests).
pub mod status {
    use has_arith::Rational;
    /// Trip not yet paid.
    pub const UNPAID: i64 = 0;
    /// Trip paid.
    pub const PAID: i64 = 1;
    /// Payment failed.
    pub const FAILED: i64 = 2;
    /// The flight was cancelled.
    pub const FLIGHT_CANCELED: i64 = 3;

    /// The constant as a rational.
    pub fn r(c: i64) -> Rational {
        Rational::from_int(c)
    }
}

/// Refund modes written by `Cancel::CancelFlight`.
pub mod refund {
    /// Refund reduced by the lost discount (the policy-compliant outcome when
    /// a discounted hotel is kept).
    pub const PENALIZED: i64 = 1;
    /// Full refund.
    pub const FULL: i64 = 2;
}

/// Which variant of the specification to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TravelVariant {
    /// The specification as written in Appendix A: `AddHotel` and `Cancel`
    /// may run concurrently after a successful payment.
    Buggy,
    /// The corrected specification: `Cancel` only opens once the hotel
    /// reservation (if any) is recorded in the parent.
    Fixed,
}

/// Handles to the interesting parts of the travel system, for building
/// properties and driving the simulator.
#[derive(Clone, Debug)]
pub struct TravelSystem {
    /// The artifact system itself.
    pub system: ArtifactSystem,
    /// Task ids.
    pub manage_trips: has_model::TaskId,
    /// `AddFlight`.
    pub add_flight: has_model::TaskId,
    /// `AddHotel`.
    pub add_hotel: has_model::TaskId,
    /// `AlsoBookHotel` (child of `AddHotel`).
    pub also_book_hotel: has_model::TaskId,
    /// `BookInitialTrip`.
    pub book_initial_trip: has_model::TaskId,
    /// `Cancel`.
    pub cancel: has_model::TaskId,
    /// Index of the `CancelFlight` internal service within `Cancel`.
    pub cancel_flight_service: usize,
    /// `AddHotel`'s `hotel_price` variable (for the Discounted test).
    pub a_hotel_price: VarId,
    /// `AddHotel`'s `discount_price` variable.
    pub a_discount: VarId,
    /// `Cancel`'s `refund_mode` variable (for the Penalized test).
    pub c_refund_mode: VarId,
}

/// Builds the travel-booking artifact system.
pub fn travel_booking(variant: TravelVariant) -> TravelSystem {
    let mut b = SystemBuilder::new("travel-booking");

    // Database schema (Appendix A.1).
    b.relation("HOTELS", &["unit_price", "discount_price"], &[]);
    b.relation("FLIGHTS", &["price"], &[("comp_hotel_id", "HOTELS")]);
    let hotels = b.relation_id("HOTELS").unwrap();
    let flights = b.relation_id("FLIGHTS").unwrap();

    // ------------------------------------------------------------------
    // ManageTrips (root)
    // ------------------------------------------------------------------
    let manage = b.root_task("ManageTrips");
    let flight_id = b.id_var(manage, "flight_id");
    let hotel_id = b.id_var(manage, "hotel_id");
    let m_status = b.num_var(manage, "status");
    let m_amount = b.num_var(manage, "amount_paid");
    let m_hotel_paid = b.num_var(manage, "hotel_price_paid");
    b.artifact_relation(manage, "TRIPS", &[flight_id, hotel_id]);

    let unpaid = || Condition::eq_const(m_status, status::r(status::UNPAID));
    let paid = || Condition::eq_const(m_status, status::r(status::PAID));

    b.internal_service(
        manage,
        "StoreTrip",
        unpaid().and(Condition::not_null(flight_id).or(Condition::not_null(hotel_id))),
        Condition::is_null(flight_id)
            .and(Condition::is_null(hotel_id))
            .and(Condition::eq_const(m_status, status::r(status::UNPAID)))
            .and(Condition::eq_const(m_amount, Rational::ZERO))
            .and(Condition::eq_const(m_hotel_paid, Rational::ZERO)),
        SetUpdate::Insert,
    );
    b.internal_service(
        manage,
        "RetrieveTrip",
        unpaid(),
        Condition::eq_const(m_status, status::r(status::UNPAID))
            .and(Condition::eq_const(m_amount, Rational::ZERO))
            .and(Condition::eq_const(m_hotel_paid, Rational::ZERO)),
        SetUpdate::Retrieve,
    );

    // ------------------------------------------------------------------
    // AddFlight
    // ------------------------------------------------------------------
    let add_flight = b.child_task(manage, "AddFlight");
    let f_fid = b.id_var(add_flight, "fid");
    let f_price = b.num_var(add_flight, "fprice");
    let f_comp = b.id_var(add_flight, "fcomp");
    b.open_when(add_flight, Condition::is_null(flight_id).and(unpaid()));
    b.internal_service(
        add_flight,
        "ChooseFlight",
        Condition::True,
        Condition::relation(
            flights,
            vec![Term::Var(f_fid), Term::Var(f_price), Term::Var(f_comp)],
        ),
        SetUpdate::None,
    );
    b.close_when(add_flight, Condition::not_null(f_fid));
    b.map_output(add_flight, flight_id, f_fid);

    // ------------------------------------------------------------------
    // AddHotel (with child AlsoBookHotel)
    // ------------------------------------------------------------------
    let add_hotel = b.child_task(manage, "AddHotel");
    let a_flight = b.id_var(add_hotel, "a_flight_id");
    let a_status = b.num_var(add_hotel, "a_status");
    let a_amount = b.num_var(add_hotel, "a_amount_paid");
    let a_hotel = b.id_var(add_hotel, "a_hotel_id");
    let a_unit = b.num_var(add_hotel, "a_unit_price");
    let a_discount = b.num_var(add_hotel, "a_discount_price");
    let a_hotel_price = b.num_var(add_hotel, "a_hotel_price");
    let a_new_amount = b.num_var(add_hotel, "a_new_amount_paid");
    let a_fprice = b.num_var(add_hotel, "a_flight_price");
    let a_comp = b.id_var(add_hotel, "a_comp_hotel");
    b.open_when(
        add_hotel,
        Condition::is_null(hotel_id).and(unpaid().or(paid())),
    );
    b.map_input(add_hotel, a_flight, flight_id);
    b.map_input(add_hotel, a_status, m_status);
    b.map_input(add_hotel, a_amount, m_amount);

    // ChooseHotel: pick a hotel; the price is the discount price iff the
    // chosen hotel is the one compatible with the already chosen flight.
    let choose_hotel_pre = Condition::is_null(a_hotel); // choose once
    let compatible = Condition::relation(
        flights,
        vec![Term::Var(a_flight), Term::Var(a_fprice), Term::Var(a_comp)],
    );
    let choose_hotel_post = Condition::relation(
        hotels,
        vec![Term::Var(a_hotel), Term::Var(a_unit), Term::Var(a_discount)],
    )
    .and(Condition::is_null(a_flight).implies(Condition::var_eq(a_hotel_price, a_unit)))
    .and(
        Condition::not_null(a_flight).implies(
            compatible.and(
                Condition::var_eq(a_comp, a_hotel)
                    .implies(Condition::var_eq(a_hotel_price, a_discount))
                    .and(
                        Condition::var_eq(a_comp, a_hotel)
                            .negate()
                            .implies(Condition::var_eq(a_hotel_price, a_unit)),
                    ),
            ),
        ),
    )
    .and(Condition::eq_const(a_new_amount, Rational::ZERO));
    b.internal_service(
        add_hotel,
        "ChooseHotel",
        choose_hotel_pre,
        choose_hotel_post,
        SetUpdate::None,
    );

    // AlsoBookHotel: pays the newly added hotel when the trip was already
    // paid for.
    let also_book = b.child_task(add_hotel, "AlsoBookHotel");
    let b_hotel_price = b.num_var(also_book, "b_hotel_price");
    let b_amount = b.num_var(also_book, "b_amount_paid");
    let b_paid = b.num_var(also_book, "b_hotel_amount_paid");
    let b_new = b.num_var(also_book, "b_new_amount_paid");
    b.open_when(
        also_book,
        Condition::not_null(a_hotel).and(Condition::eq_const(a_status, status::r(status::PAID))),
    );
    b.map_input(also_book, b_hotel_price, a_hotel_price);
    b.map_input(also_book, b_amount, a_amount);
    // Pay: receives a hotel payment; the new total is the old total plus the
    // payment (an arithmetic constraint). The payment may fail and be
    // retried any number of times.
    let pay_post = Condition::arith(LinearConstraint::eq(
        LinExpr::var(b_new),
        LinExpr::var(b_amount) + LinExpr::var(b_paid),
    ));
    b.internal_service(also_book, "Pay", Condition::True, pay_post, SetUpdate::None);
    b.close_when(also_book, Condition::var_eq(b_paid, b_hotel_price));
    b.map_output(also_book, a_new_amount, b_new);

    // AddHotel closes either before payment (unpaid trip) or after the extra
    // hotel payment went through.
    b.close_when(
        add_hotel,
        Condition::not_null(a_hotel).and(
            Condition::eq_const(a_status, status::r(status::UNPAID)).or(Condition::eq_const(
                a_status,
                status::r(status::PAID),
            )
            .and(Condition::var_eq(a_new_amount, a_hotel_price).or(
                // simplified accounting: the new total differs from the
                // old one by the hotel price (kept as an arithmetic
                // atom for the arithmetic benchmarks)
                Condition::arith(LinearConstraint::eq(
                    LinExpr::var(a_new_amount),
                    LinExpr::var(a_amount) + LinExpr::var(a_hotel_price),
                )),
            ))),
        ),
    );
    b.map_output(add_hotel, hotel_id, a_hotel);
    b.map_output(add_hotel, m_hotel_paid, a_hotel_price);

    // ------------------------------------------------------------------
    // BookInitialTrip
    // ------------------------------------------------------------------
    let book = b.child_task(manage, "BookInitialTrip");
    let k_flight = b.id_var(book, "k_flight_id");
    let k_hotel = b.id_var(book, "k_hotel_id");
    let k_status = b.num_var(book, "k_status");
    let k_amount = b.num_var(book, "k_amount_paid");
    let k_tprice = b.num_var(book, "k_ticket_price");
    let k_hprice = b.num_var(book, "k_hotel_price");
    let k_unit = b.num_var(book, "k_unit_price");
    let k_disc = b.num_var(book, "k_discount_price");
    let k_comp = b.id_var(book, "k_comp_hotel");
    b.open_when(
        book,
        unpaid().and(Condition::not_null(flight_id).or(Condition::not_null(hotel_id))),
    );
    b.map_input(book, k_flight, flight_id);
    b.map_input(book, k_hotel, hotel_id);
    let pay_post = Condition::is_null(k_flight)
        .implies(Condition::eq_const(k_tprice, Rational::ZERO))
        .and(Condition::not_null(k_flight).implies(Condition::relation(
            flights,
            vec![Term::Var(k_flight), Term::Var(k_tprice), Term::Var(k_comp)],
        )))
        .and(Condition::is_null(k_hotel).implies(Condition::eq_const(k_hprice, Rational::ZERO)))
        .and(
            Condition::not_null(k_hotel).implies(
                Condition::relation(
                    hotels,
                    vec![Term::Var(k_hotel), Term::Var(k_unit), Term::Var(k_disc)],
                )
                .and(
                    Condition::var_eq(k_hotel, k_comp).implies(Condition::var_eq(k_hprice, k_disc)),
                )
                .and(
                    Condition::var_eq(k_hotel, k_comp)
                        .negate()
                        .implies(Condition::var_eq(k_hprice, k_unit)),
                ),
            ),
        )
        .and(
            Condition::arith(LinearConstraint::eq(
                LinExpr::var(k_amount),
                LinExpr::var(k_tprice) + LinExpr::var(k_hprice),
            ))
            .implies(Condition::eq_const(k_status, status::r(status::PAID))),
        )
        .and(
            Condition::eq_const(k_status, status::r(status::PAID))
                .or(Condition::eq_const(k_status, status::r(status::FAILED))),
        );
    b.internal_service(book, "Pay", Condition::True, pay_post, SetUpdate::None);
    b.close_when(
        book,
        Condition::eq_const(k_status, status::r(status::PAID))
            .or(Condition::eq_const(k_status, status::r(status::FAILED))),
    );
    b.map_output(book, m_status, k_status);
    b.map_output(book, m_amount, k_amount);

    // ------------------------------------------------------------------
    // Cancel
    // ------------------------------------------------------------------
    let cancel = b.child_task(manage, "Cancel");
    let c_flight = b.id_var(cancel, "c_flight_id");
    let c_hotel = b.id_var(cancel, "c_hotel_id");
    let c_hpaid = b.num_var(cancel, "c_hotel_price_paid");
    let c_refund_mode = b.num_var(cancel, "c_refund_mode");
    let c_status = b.num_var(cancel, "c_status");
    let c_tprice = b.num_var(cancel, "c_ticket_price");
    let c_unit = b.num_var(cancel, "c_unit_price");
    let c_disc = b.num_var(cancel, "c_discount_price");
    let c_comp = b.id_var(cancel, "c_comp_hotel");
    let cancel_open = match variant {
        TravelVariant::Buggy => paid(),
        // Fixed: the cancellation flow only opens when the hotel reservation
        // (added by AddHotel) is visible in the parent, so it cannot race a
        // concurrent AddHotel that is still choosing the discounted hotel.
        TravelVariant::Fixed => paid().and(Condition::not_null(hotel_id)),
    };
    b.open_when(cancel, cancel_open);
    b.map_input(cancel, c_flight, flight_id);
    b.map_input(cancel, c_hotel, hotel_id);
    b.map_input(cancel, c_hpaid, m_hotel_paid);

    let discounted_now = Condition::not_null(c_hotel).and(Condition::var_eq(c_hpaid, c_disc));
    let cancel_flight_post = Condition::relation(
        flights,
        vec![Term::Var(c_flight), Term::Var(c_tprice), Term::Var(c_comp)],
    )
    .and(Condition::not_null(c_hotel).implies(Condition::relation(
        hotels,
        vec![Term::Var(c_hotel), Term::Var(c_unit), Term::Var(c_disc)],
    )))
    .and(discounted_now.clone().implies(Condition::eq_const(
        c_refund_mode,
        Rational::from_int(refund::PENALIZED),
    )))
    .and(discounted_now.negate().implies(Condition::eq_const(
        c_refund_mode,
        Rational::from_int(refund::FULL),
    )))
    .and(Condition::eq_const(
        c_status,
        status::r(status::FLIGHT_CANCELED),
    ));
    b.internal_service(
        cancel,
        "CancelFlight",
        Condition::not_null(c_flight).and(Condition::eq_const(c_status, Rational::ZERO)),
        cancel_flight_post,
        SetUpdate::None,
    );
    b.close_when(cancel, Condition::True);
    b.map_output(cancel, m_status, c_status);

    let system = b.build().expect("travel booking system is well-formed");
    let cancel_flight_service = 0; // first (and only) internal service of Cancel
    TravelSystem {
        system,
        manage_trips: manage,
        add_flight,
        add_hotel,
        also_book_hotel: also_book,
        book_initial_trip: book,
        cancel,
        cancel_flight_service,
        a_hotel_price,
        a_discount,
        c_refund_mode,
    }
}

/// The HLTL-FO property of Appendix A.2: *if a discounted hotel reservation
/// is added (and paid for through `AlsoBookHotel`), then whenever `Cancel`
/// runs, cancelling the flight must apply the discount penalty.*
///
/// `[ F [F(Discounted ∧ X σ^o_AlsoBookHotel)]_AddHotel →
///     G(σ^o_Cancel → [G(CancelFlight → Penalized)]_Cancel) ]_ManageTrips`
pub fn travel_property(t: &TravelSystem) -> HltlFormula {
    // ψ2, attached to AddHotel.
    let mut ah = HltlBuilder::new(t.add_hotel);
    let discounted = ah.condition(Condition::var_eq(t.a_hotel_price, t.a_discount));
    let open_also_book = ah.service(ServiceRef::Opening(t.also_book_hotel));
    let psi2 = ah.finish(discounted.and(open_also_book.next()).eventually());

    // ψ3, attached to Cancel.
    let mut ca = HltlBuilder::new(t.cancel);
    let cancel_flight = ca.service(ServiceRef::Internal(t.cancel, t.cancel_flight_service));
    let penalized = ca.condition(Condition::eq_const(
        t.c_refund_mode,
        Rational::from_int(refund::PENALIZED),
    ));
    let psi3 = ca.finish(cancel_flight.implies(penalized).globally());

    // The top-level formula, attached to ManageTrips.
    let mut mt = HltlBuilder::new(t.manage_trips);
    let add_hotel_ok = mt.child(t.add_hotel, psi2);
    let open_cancel = mt.service(ServiceRef::Opening(t.cancel));
    let cancel_ok = mt.child(t.cancel, psi3);
    mt.finish(
        add_hotel_ok
            .eventually()
            .implies(open_cancel.implies(cancel_ok).globally()),
    )
}

/// A simple liveness property for the counterexample-reading walkthrough
/// (EXP-W1 in EXPERIMENTS.md and the README): *every run of `ManageTrips`
/// eventually reaches `PAID` status*, `[F (status = PAID)]_ManageTrips`.
///
/// Violated by both variants — a run can keep adding flights and hotels (or
/// cycling the `TRIPS` artifact relation) without ever opening
/// `BookInitialTrip` — so it reliably produces a rendered witness tree under
/// the bounded budgets the examples use. The Appendix A.2 policy
/// ([`travel_property`]) is the paper-faithful property; its violation on
/// the buggy variant is found at the default caps and at the tight example
/// caps alike (`tests/a2_violation.rs`, EXP-S1).
pub fn travel_liveness_property(t: &TravelSystem) -> HltlFormula {
    let status_var = t
        .system
        .schema
        .var_by_name(t.manage_trips, "status")
        .expect("ManageTrips has a status variable");
    let mut hb = HltlBuilder::new(t.manage_trips);
    let paid = hb.condition(Condition::eq_const(status_var, status::r(status::PAID)));
    hb.finish(paid.eventually())
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_model::validate;

    #[test]
    fn both_variants_build_and_validate() {
        for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
            let t = travel_booking(variant);
            assert!(validate(&t.system).is_ok());
            assert_eq!(t.system.schema.task_count(), 6);
            assert_eq!(t.system.schema.depth(), 3);
            assert!(t.system.schema.uses_artifact_relations());
            assert!(t.system.schema.uses_arithmetic());
            assert_eq!(
                t.system.schema.schema_class(),
                has_model::SchemaClass::Acyclic
            );
        }
    }

    #[test]
    fn variants_differ_only_in_cancel_guard() {
        let buggy = travel_booking(TravelVariant::Buggy);
        let fixed = travel_booking(TravelVariant::Fixed);
        let bt = buggy.system.task(buggy.cancel);
        let ft = fixed.system.task(fixed.cancel);
        assert_ne!(bt.opening.pre, ft.opening.pre);
        assert_eq!(bt.internal_services, ft.internal_services);
    }

    #[test]
    fn property_is_well_formed_for_both_variants() {
        for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
            let t = travel_booking(variant);
            let p = travel_property(&t);
            assert!(p.validate(&t.system).is_ok());
            assert_eq!(p.nesting_depth(), 2);
            assert_eq!(p.tasks().len(), 3);
        }
    }

    #[test]
    fn artifact_relation_is_the_trips_set() {
        let t = travel_booking(TravelVariant::Buggy);
        let manage = t.system.task(t.manage_trips);
        let trips = manage.artifact_relation.as_ref().unwrap();
        assert_eq!(trips.name, "TRIPS");
        assert_eq!(trips.tuple.len(), 2);
    }
}

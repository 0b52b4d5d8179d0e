open Atomrep_history
open Atomrep_spec
open Atomrep_clock
open Atomrep_cc

let check_bool = Alcotest.(check bool)

let ts n = { Lamport.Timestamp.counter = n; site = 0 }
let a = Action.of_string "A"
let b = Action.of_string "B"

(* --- Conflict tables --- *)

let test_conflict_table_projection () =
  let table = Conflict_table.of_relation Atomrep_core.Paper.prom_hybrid_relation in
  check_bool "Seal depends on Write" true
    (Conflict_table.depends table Prom.seal_inv (Prom.write "x"));
  check_bool "Write does not depend on Write" false
    (Conflict_table.depends table (Prom.write_inv "x") (Prom.write "y"));
  check_bool "Write related to Seal" true
    (Conflict_table.related table (Prom.write_inv "x") Prom.seal);
  check_bool "ops query" true (Conflict_table.related_ops table "Read" "Seal");
  check_bool "write/write unrelated" false (Conflict_table.related_ops table "Write" "Write")

(* --- Generic scheduler exercises, instantiated per scheme --- *)

module S = Scheduler

let exec t action inv =
  match S.try_operation t action inv with
  | Scheduler.Executed res -> res
  | Scheduler.Blocked blocker ->
    Alcotest.failf "unexpected block on %s" (Action.to_string blocker)
  | Scheduler.Rejected why -> Alcotest.failf "unexpected rejection: %s" why

let test_serial_execution scheme () =
  let t = S.create scheme Queue_type.spec in
  S.begin_action t a ~ts:(ts 1);
  let r1 = exec t a (Queue_type.enq_inv "x") in
  check_bool "enq ok" true (Event.Response.is_ok r1);
  S.commit t a ~ts:(ts 2);
  S.begin_action t b ~ts:(ts 3);
  let r2 = exec t b Queue_type.deq_inv in
  check_bool "deq sees x" true
    (Event.Response.equal r2 (Event.Response.ok [ Value.str "x" ]));
  S.commit t b ~ts:(ts 4);
  check_bool "well-formed history" true (Behavioral.well_formed (S.history t))

let test_abort_invisible scheme () =
  let t = S.create scheme Queue_type.spec in
  S.begin_action t a ~ts:(ts 1);
  ignore (exec t a (Queue_type.enq_inv "x"));
  S.abort t a;
  S.begin_action t b ~ts:(ts 2);
  let r = exec t b Queue_type.deq_inv in
  check_bool "deq finds empty queue" true
    (Event.Response.equal r (Event.Response.exn "Empty"))

let property_of scheme =
  let open Atomrep_atomicity.Atomicity in
  match scheme with
  | Scheme.Locking -> Dynamic
  | Scheme.Static -> Static
  | Scheme.Hybrid -> Hybrid

let test_history_satisfies_property scheme () =
  let t = S.create scheme Queue_type.spec in
  S.begin_action t a ~ts:(ts 1);
  S.begin_action t b ~ts:(ts 2);
  ignore (exec t a (Queue_type.enq_inv "x"));
  (match S.try_operation t b Queue_type.deq_inv with
   | Scheduler.Executed _ | Scheduler.Blocked _ | Scheduler.Rejected _ -> ());
  S.commit t a ~ts:(ts 3);
  (match S.try_operation t b Queue_type.deq_inv with
   | Scheduler.Executed _ | Scheduler.Blocked _ | Scheduler.Rejected _ -> ());
  S.commit t b ~ts:(ts 4);
  check_bool "history satisfies scheme property" true
    (Atomrep_atomicity.Atomicity.satisfies Queue_type.spec (property_of scheme)
       (S.history t))

(* --- Scheme-specific behaviour --- *)

let test_locking_blocks_nonconmuting () =
  let t = S.create Scheme.Locking Queue_type.spec in
  S.begin_action t a ~ts:(ts 1);
  S.begin_action t b ~ts:(ts 2);
  ignore (exec t a (Queue_type.enq_inv "x"));
  (* Enq(y) does not commute with Enq(x): blocked under locking. *)
  (match S.try_operation t b (Queue_type.enq_inv "y") with
   | Scheduler.Blocked blocker -> check_bool "blocked on A" true (Action.equal blocker a)
   | Scheduler.Executed _ -> Alcotest.fail "locking must block non-commuting enq"
   | Scheduler.Rejected why -> Alcotest.failf "unexpected rejection: %s" why);
  S.commit t a ~ts:(ts 3);
  (* After commit the lock is gone. *)
  ignore (exec t b (Queue_type.enq_inv "y"))

let test_hybrid_allows_concurrent_enqs () =
  let t = S.create Scheme.Hybrid Queue_type.spec in
  S.begin_action t a ~ts:(ts 1);
  S.begin_action t b ~ts:(ts 2);
  ignore (exec t a (Queue_type.enq_inv "x"));
  (* Under hybrid atomicity Enq/Enq is not a dependency: no block. *)
  ignore (exec t b (Queue_type.enq_inv "y"));
  S.commit t b ~ts:(ts 3);
  S.commit t a ~ts:(ts 4);
  (* Commit order B, A: a reader must now see y first. *)
  S.begin_action t (Action.of_string "C") ~ts:(ts 5);
  let r = exec t (Action.of_string "C") Queue_type.deq_inv in
  check_bool "deq sees y (commit order)" true
    (Event.Response.equal r (Event.Response.ok [ Value.str "y" ]));
  check_bool "hybrid atomic" true
    (Atomrep_atomicity.Atomicity.is_hybrid_atomic Queue_type.spec (S.history t))

let test_hybrid_blocks_deq_on_enq () =
  let t = S.create Scheme.Hybrid Queue_type.spec in
  S.begin_action t a ~ts:(ts 1);
  S.begin_action t b ~ts:(ts 2);
  ignore (exec t a (Queue_type.enq_inv "x"));
  match S.try_operation t b Queue_type.deq_inv with
  | Scheduler.Blocked _ -> ()
  | Scheduler.Executed _ -> Alcotest.fail "deq must block on uncommitted enq"
  | Scheduler.Rejected why -> Alcotest.failf "unexpected rejection: %s" why

let test_hybrid_prom_concurrent_writes () =
  (* The paper's PROM payoff: concurrent writers never block each other
     under hybrid atomicity. *)
  let t = S.create Scheme.Hybrid Prom.spec in
  S.begin_action t a ~ts:(ts 1);
  S.begin_action t b ~ts:(ts 2);
  ignore (exec t a (Prom.write_inv "x"));
  ignore (exec t b (Prom.write_inv "y"));
  S.commit t a ~ts:(ts 3);
  S.commit t b ~ts:(ts 4);
  check_bool "hybrid atomic" true
    (Atomrep_atomicity.Atomicity.is_hybrid_atomic Prom.spec (S.history t))

let test_locking_prom_writes_block () =
  let t = S.create Scheme.Locking Prom.spec in
  S.begin_action t a ~ts:(ts 1);
  S.begin_action t b ~ts:(ts 2);
  ignore (exec t a (Prom.write_inv "x"));
  match S.try_operation t b (Prom.write_inv "y") with
  | Scheduler.Blocked _ -> ()
  | Scheduler.Executed _ -> Alcotest.fail "locking must block concurrent writes"
  | Scheduler.Rejected why -> Alcotest.failf "unexpected rejection: %s" why

let test_static_late_writer_rejected () =
  let t = S.create Scheme.Static Register.spec in
  (* B (later timestamp) reads first; A (earlier) then tries to write:
     the write would invalidate B's read. *)
  S.begin_action t a ~ts:(ts 1);
  S.begin_action t b ~ts:(ts 5);
  ignore (exec t b Register.read_inv);
  S.commit t b ~ts:(ts 6);
  match S.try_operation t a (Register.write_inv "x") with
  | Scheduler.Rejected _ -> ()
  | Scheduler.Executed _ -> Alcotest.fail "late write must be rejected"
  | Scheduler.Blocked _ -> Alcotest.fail "static schemes do not block here"

let test_static_commuting_late_op_accepted () =
  let t = S.create Scheme.Static Counter.spec in
  S.begin_action t a ~ts:(ts 1);
  S.begin_action t b ~ts:(ts 5);
  ignore (exec t b Counter.inc_inv);
  S.commit t b ~ts:(ts 6);
  (* An earlier-timestamped Inc slots in without invalidating B's Inc. *)
  ignore (exec t a Counter.inc_inv);
  S.commit t a ~ts:(ts 7);
  check_bool "static atomic" true
    (Atomrep_atomicity.Atomicity.is_static_atomic Counter.spec (S.history t))

let test_static_read_positions () =
  let t = S.create Scheme.Static Register.spec in
  S.begin_action t a ~ts:(ts 1);
  ignore (exec t a (Register.write_inv "x"));
  S.commit t a ~ts:(ts 2);
  (* A later reader sees x. *)
  S.begin_action t b ~ts:(ts 3);
  let r = exec t b Register.read_inv in
  check_bool "read sees committed write" true
    (Event.Response.equal r (Event.Response.ok [ Value.str "x" ]))

let test_scheduler_rejects_unknown_action () =
  let t = S.create Scheme.Locking Queue_type.spec in
  Alcotest.check_raises "unknown action"
    (Invalid_argument "Scheduler: unknown action Z") (fun () ->
      ignore (S.try_operation t (Action.of_string "Z") Queue_type.deq_inv))

let test_scheduler_rejects_duplicate_begin () =
  let t = S.create Scheme.Locking Queue_type.spec in
  S.begin_action t a ~ts:(ts 1);
  Alcotest.check_raises "duplicate begin"
    (Invalid_argument "Scheduler: duplicate Begin for A") (fun () ->
      S.begin_action t a ~ts:(ts 2))

let per_scheme scheme =
  let name = Scheme.name scheme in
  [
    Alcotest.test_case (name ^ ": serial execution") `Quick (test_serial_execution scheme);
    Alcotest.test_case (name ^ ": aborts invisible") `Quick (test_abort_invisible scheme);
    Alcotest.test_case
      (name ^ ": history satisfies property")
      `Quick
      (test_history_satisfies_property scheme);
  ]

let suites =
  [
    ( "concurrency control",
      [
        Alcotest.test_case "conflict table projection" `Quick test_conflict_table_projection;
      ]
      @ per_scheme Scheme.Locking
      @ per_scheme Scheme.Static
      @ per_scheme Scheme.Hybrid
      @ [
          Alcotest.test_case "locking blocks non-commuting" `Quick test_locking_blocks_nonconmuting;
          Alcotest.test_case "hybrid allows concurrent enqs" `Quick test_hybrid_allows_concurrent_enqs;
          Alcotest.test_case "hybrid blocks deq on enq" `Quick test_hybrid_blocks_deq_on_enq;
          Alcotest.test_case "hybrid PROM concurrent writes" `Quick test_hybrid_prom_concurrent_writes;
          Alcotest.test_case "locking PROM writes block" `Quick test_locking_prom_writes_block;
          Alcotest.test_case "static rejects late writer" `Quick test_static_late_writer_rejected;
          Alcotest.test_case "static accepts commuting late op" `Quick test_static_commuting_late_op_accepted;
          Alcotest.test_case "static reads see commits" `Quick test_static_read_positions;
          Alcotest.test_case "unknown action" `Quick test_scheduler_rejects_unknown_action;
          Alcotest.test_case "duplicate begin" `Quick test_scheduler_rejects_duplicate_begin;
        ] );
  ]

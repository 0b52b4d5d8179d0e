open Atomrep_history
open Atomrep_spec
open Atomrep_clock

type outcome = Scheme.outcome =
  | Executed of Event.Response.t
  | Blocked of Action.t
  | Rejected of string

let pp_outcome = Scheme.pp_outcome

type status = Active | Committed | Aborted

type action_state = {
  begin_ts : Lamport.Timestamp.t;
  mutable own : Scheme.entry list; (* seq order *)
  mutable status : status;
}

type t = {
  scheme : Scheme.t;
  spec : Serial_spec.t;
  table : Conflict_table.t;
  mutable actions : action_state Action.Map.t;
  mutable executed : Scheme.entry list; (* newest first *)
  mutable committed : (Lamport.Timestamp.t * Scheme.entry list) list;
      (* commit-timestamp order *)
  mutable entries : Behavioral.entry list; (* newest first *)
}

let create scheme spec =
  {
    scheme;
    spec;
    table = Scheme.conflict_table scheme spec;
    actions = Action.Map.empty;
    executed = [];
    committed = [];
    entries = [];
  }

let state_of t a =
  match Action.Map.find_opt a t.actions with
  | Some s -> s
  | None -> invalid_arg ("Scheduler: unknown action " ^ Action.to_string a)

let require_active t a =
  let st = state_of t a in
  match st.status with
  | Active -> st
  | Committed | Aborted -> invalid_arg ("Scheduler: action not active: " ^ Action.to_string a)

let begin_action t a ~ts =
  if Action.Map.mem a t.actions then
    invalid_arg ("Scheduler: duplicate Begin for " ^ Action.to_string a);
  t.actions <- Action.Map.add a { begin_ts = ts; own = []; status = Active } t.actions;
  t.entries <- Behavioral.Begin a :: t.entries

let try_operation t a inv =
  let st = require_active t a in
  let undecided (e : Scheme.entry) =
    (not (Action.equal e.action a)) && (state_of t e.action).status = Active
  in
  let view =
    {
      Scheme.committed = List.concat_map snd t.committed;
      tentative = List.rev (List.filter undecided t.executed);
      own = st.own;
      begin_ts = st.begin_ts;
    }
  in
  let outcome = Scheme.decide t.scheme t.spec t.table view inv in
  (match outcome with
   | Executed res ->
     let e =
       { Scheme.action = a; begin_ts = st.begin_ts; seq = List.length st.own;
         event = Event.make inv res }
     in
     st.own <- st.own @ [ e ];
     t.executed <- e :: t.executed;
     t.entries <- Behavioral.Exec (e.event, a) :: t.entries
   | Blocked _ | Rejected _ -> ());
  outcome

let commit t a ~ts =
  let st = require_active t a in
  st.status <- Committed;
  t.committed <-
    List.merge (fun (t1, _) (t2, _) -> Lamport.Timestamp.compare t1 t2) t.committed
      [ (ts, st.own) ];
  t.entries <- Behavioral.Commit a :: t.entries

let abort t a =
  let st = require_active t a in
  st.status <- Aborted;
  t.entries <- Behavioral.Abort a :: t.entries

let history t = List.rev t.entries

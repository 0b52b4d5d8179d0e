(** The single-site concurrency-control scheduler.

    A scheduler mediates the operations of concurrent actions on one object
    under one of the {!Scheme}s. It keeps the action table (Begin
    timestamps, executed entries, commit order) and hands
    {!Scheme.decide} the same input the replicated front-end
    ({!Atomrep_replica.Replicated}) builds from a view: committed entries
    in commit order, other actions' undecided entries in execution order,
    the caller's own entries and its Begin timestamp. It is the single-site
    reference: the test suite checks every history it generates with
    {!Atomrep_atomicity.Atomicity.check}, and checks that a one-site,
    fault-free replicated object returns the same outcome at every step. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_clock

type outcome = Scheme.outcome =
  | Executed of Event.Response.t
  | Blocked of Action.t (** must wait for the named action to finish *)
  | Rejected of string (** must abort: timestamp or validation failure *)

val pp_outcome : Format.formatter -> outcome -> unit

type t

val create : Scheme.t -> Serial_spec.t -> t
(** A fresh object with the scheme's default conflict table
    ({!Scheme.conflict_table}). *)

val begin_action : t -> Action.t -> ts:Lamport.Timestamp.t -> unit
(** Register an action; [ts] is its Begin timestamp. *)

val try_operation : t -> Action.t -> Event.Invocation.t -> outcome
(** Attempt one operation. [Executed res] records the event; the other
    outcomes record nothing. *)

val commit : t -> Action.t -> ts:Lamport.Timestamp.t -> unit
(** Commit with the given Commit timestamp; committed entries serialize in
    Commit-timestamp order. *)

val abort : t -> Action.t -> unit

val history : t -> Behavioral.t
(** The behavioral history generated so far, for atomicity checking. *)

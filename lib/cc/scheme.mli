(** The three concurrency-control schemes as one pure decision rule (paper,
    §3.2 and §5).

    The schemes differ in only two things: which tentative operations block
    an invocation, and the order in which the chosen response is
    serialized.

    - [Hybrid] — locking while active plus commit-time timestamps (Weihl
      [28], Avalon-style): related tentative entries of other actions block;
      the response is chosen after every committed entry in commit order.
      Guarantees {e hybrid} atomicity.
    - [Locking] — type-specific two-phase locking (Schwarz–Spector [26];
      Argus, TABS): the same rule with non-commutativity conflicts.
      Guarantees {e strong dynamic} atomicity.
    - [Static] — multiversion timestamp ordering on Begin timestamps (Reed
      [25]; Swallow): related tentative entries of earlier-timestamped
      actions block; the response is chosen at the caller's Begin-timestamp
      position and rejected if inserting it there makes the timeline of all
      non-aborted entries illegal. Guarantees {e static} atomicity.

    {!decide} is the whole rule. The replicated front-end
    ({!Atomrep_replica.Replicated}) calls it on the view merged from an
    initial quorum; the single-site {!Scheduler} calls it on its action
    table. *)

open Atomrep_history
open Atomrep_spec
open Atomrep_core
open Atomrep_clock

type t = Hybrid | Static | Locking

val name : t -> string
(** ["hybrid"], ["static"] or ["locking"]. *)

val relation : t -> Serial_spec.t -> Relation.t
(** The scheme's default dependency relation, by bounded analysis: the
    minimal dynamic relation (Theorem 10) for [Locking], the minimal static
    relation (Theorem 6; a hybrid relation by Theorem 4) otherwise. *)

val conflict_table : ?relation:Relation.t -> t -> Serial_spec.t -> Conflict_table.t
(** The conflict table of an object whose dependency relation is
    [relation] (default: the scheme's {!relation}). [Hybrid] and [Static]
    project it: Enq need not conflict with Enq, because timestamp order
    resolves them. [Locking] serializes in commit order, so it must conflict
    every non-commuting pair: it always projects the dynamic relation. On
    the weaker table it would admit concurrent Enqs whose commit order
    contradicts the order later Deqs answer from, a dynamic-atomicity
    violation. *)

type entry = {
  action : Action.t;
  begin_ts : Lamport.Timestamp.t; (** Begin timestamp of [action] *)
  seq : int; (** operation index within [action] *)
  event : Event.t;
}

type view = {
  committed : entry list;
      (** committed actions' entries in commit order, each action's entries
          in [seq] order *)
  tentative : entry list;
      (** other actions' undecided entries in execution (entry-timestamp)
          order *)
  own : entry list; (** the caller's entries in [seq] order *)
  begin_ts : Lamport.Timestamp.t; (** the caller's Begin timestamp *)
}
(** The decision-relevant part of what a caller knows. Aborted entries are
    left out. *)

type outcome =
  | Executed of Event.Response.t (** the response to record *)
  | Blocked of Action.t (** must wait for the named action to finish *)
  | Rejected of string (** must abort: timestamp or validation failure *)

val pp_outcome : Format.formatter -> outcome -> unit

val decide : t -> Serial_spec.t -> Conflict_table.t -> view -> Event.Invocation.t -> outcome
(** Apply the scheme's rule to one invocation. [Blocked] names the owner of
    the first blocking entry of [tentative]. Rejections: "view
    reconstruction failed" (committed plus own entries replay illegally) and
    "no legal response" under [Hybrid]/[Locking]; "inconsistent timeline"
    and "timestamp order violation" under [Static]. *)

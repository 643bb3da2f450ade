(** Differential fuzzing campaigns.

    A campaign draws per-trial seeds from one splitmix64 stream, generates
    a program per trial, runs the {!Oracle}, tallies verdict buckets, and
    (by default) ddmin-reduces the first crash of each distinct bucket.
    Everything downstream of the campaign seed is deterministic: identical
    seeds yield bit-identical campaigns, trial for trial.  A wall-clock
    [budget] can truncate a campaign early; the trials that do run are
    still the same prefix of the same stream. *)

open Bs_support
open Bitspec

type crash = {
  trial : int;           (** trial index within the campaign *)
  tseed : int;           (** the generator seed of this trial *)
  bucket : Bucket.t;
  details : string;      (** the oracle's human-readable account *)
  source : string;       (** the program as generated *)
  reduced : string;      (** minimized reproducer ([= source] if not reduced) *)
  args : int64 list;     (** entry arguments of the differential run *)
}

type t = {
  seed : int;
  requested : int;       (** trials asked for *)
  executed : int;        (** trials actually run (budget may truncate) *)
  agreed : int;
  skipped : int;
  crashes : crash list;  (** first crash per distinct bucket, discovery order *)
  tally : Bucket.tally;  (** every crash occurrence, keyed by bucket *)
  plant : Driver.pass_fault option;
}

val run :
  ?plant:Driver.pass_fault ->
  ?budget:float ->
  ?reduce:bool ->
  ?size:int ->
  ?fuel:int ->
  ?jobs:int ->
  ?engine:Bs_sim.Machine.engine ->
  seed:int ->
  trials:int ->
  unit ->
  t
(** Run a campaign.  [plant] injects a compiler fault into every trial's
    compiles (self-test mode); [budget] is wall-clock seconds; [reduce]
    (default true) minimises the first crash of each bucket; [size] and
    [fuel] are passed through to {!Gen.program} and {!Oracle.run};
    [engine] (default [Jit]) picks the machine dispatch engine —
    verdicts and reports are invariant under it.

    [jobs] (default 1) fans trials out over a domain pool in chunks:
    every trial seed is drawn from the campaign stream sequentially
    before its chunk runs, and tallying, dedup and reduction fold over
    the verdicts in trial order, so an unbudgeted campaign's result is
    byte-identical whatever [jobs].  (A [budget] is checked between
    chunks, so where a budgeted campaign truncates may depend on
    [jobs] — but the trials that do run are still the same prefix.) *)

val meta_of_crash : t -> crash -> Corpus.meta

val save_corpus : dir:string -> t -> string list
(** Write each crash's reduced reproducer (with metadata header) to
    [dir]; returns the paths written. *)

val report : t -> string
(** Deterministic human-readable report: verdict counts, bucket tally,
    and per-bucket minimized reproducers with replay commands.  Contains
    no timing data, so equal-seed campaigns render identically. *)

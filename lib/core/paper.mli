(** The paper's evaluation grid (§4: Figures 8–18 and Table 2), declared
    once.

    A cell is one experiment: a kernel, built under one configuration
    after profiling on one input, and measured on the kernel's test
    input.  A section is a figure or table whose unit of work is a cell:
    one row per kernel, each row a pure function of that kernel's cells'
    metrics.  [bench/main.exe] prints the sections; {!cells} is the set
    of experiments they need. *)

type source =
  | Train  (** the kernel's source, profiled on its train input *)
  | Alt  (** profiled on the alternate input (RQ6, Figure 15) *)
  | Narrow  (** the hand-narrowed source, profiled on the train input (RQ7) *)

type cell = { kernel : string; config : Driver.config; source : source }

val cell_name : cell -> string
(** [kernel/config_tag], with [#altprof] or [#narrow] appended for the
    non-[Train] sources — the profile labels the compile cache sees. *)

val measure : cell -> Experiment.metrics
(** {!Experiment.run} on the cell, memoised per process.
    @raise Failure naming the cell when its run traps or its checksum
    differs from {!Experiment.reference_checksum} of the cell's own
    source (the failure is memoised too). *)

type value = Ratio of float | Count of int
(** One printed column: [%12.3f] or [%12d]. *)

type section = {
  name : string;  (** the [bench/main.exe] argument *)
  title : string;
  columns : string list;
  kernels : string list;  (** the rows, in order *)
  cells : string -> cell list;  (** a row's cells *)
  row : Experiment.metrics array -> value list;
      (** a row's columns from its cells' metrics, in [cells] order *)
  footer : value list list -> string;
      (** text after the rows, from every row's columns *)
}

val sections : section list
(** fig8 to fig14, rq3, table2, rq5, fig15, rq7 and fig18. *)

val cells : cell list
(** Every distinct cell of {!sections}, in first-use order. *)

(** Ablation studies over TFRC's design choices (beyond the paper's own
    figures, but directly motivated by its Section 3 discussion):

    - loss-interval history size n (the paper argues n=8 is the knee),
    - history discounting on/off (recovery speed after congestion ends;
      {!Fig19.trace} with discounting toggled),
    - RTT EWMA gain x interpacket-spacing stabilization (oscillations),
    - expedited feedback on loss events on/off (response time;
      {!Fig20_21.rtts_to_halve} at p0 = 0.01 with it toggled),
    - the Section 4.1 burstiness aid (two packets every two intervals)
      against a small-window TCP competitor,
    - ECN marking vs dropping at a RED bottleneck (Section 7 outlook). *)

(** One job per table cell that runs a simulation, grouped by section key
    prefix (e.g. ["ablations/history/8"]). *)
val jobs : full:bool -> Job.t list

val render :
  full:bool ->
  seed:int ->
  (string * Job.result) list ->
  Format.formatter ->
  unit

(** Section 4.3's "apparent phase effect": on a heavily loaded DropTail
    link shared by several TFRC flows and one TCP, TFRC's perfectly smooth
    spacing can interact with a persistently full buffer so that bursty TCP
    loses disproportionately; the interpacket-spacing adjustment introduces
    enough short-term variation to break the phase and restore fairness
    ("Adding the interpacket spacing adjustment ... fairness improved
    greatly").

    Also demonstrates the classic DropTail phase-locking between identical
    TCP flows, and that RED or RTT randomization removes it. *)

val jobs : full:bool -> Job.t list

val render :
  full:bool ->
  seed:int ->
  (string * Job.result) list ->
  Format.formatter ->
  unit

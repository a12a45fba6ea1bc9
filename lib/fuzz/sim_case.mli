(** The simulator fuzz case: a random {!Scenario} judged by
    {!Oracle.run}, shrunk by {!Shrink.minimize} and stored whole in its
    repro bundle. The [--mutate] plant trips [queue-conservation]. *)

val kind : Scenario.t Driver.kind

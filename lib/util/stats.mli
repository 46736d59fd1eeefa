(** Descriptive statistics over float samples.

    Used throughout the evaluation harness to summarize latency
    distributions, satisfied-demand series, and CDF/CV figures. *)

val mean : float array -> float
(** Arithmetic mean.  [nan] on an empty array. *)

val variance : float array -> float
(** Population variance.  [nan] on an empty array. *)

val std : float array -> float
(** Population standard deviation. *)

val coefficient_of_variation : float array -> float
(** [std /. mean]; [nan] when the mean is zero or the array empty. *)

val min_max : float array -> float * float
(** Smallest and largest sample.  Raises [Invalid_argument] if empty. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in \[0,100\], linear interpolation
    between order statistics.  Does not mutate [xs].  Raises
    [Invalid_argument] on an empty array, on [p] outside the range
    (including NaN), or on any NaN sample — a NaN has no rank, so
    order statistics over it are meaningless. *)

val median : float array -> float
(** 50th percentile. *)

val cdf_points : float array -> int -> (float * float) list
(** [cdf_points xs n] returns [n] evenly spaced [(value, fraction)]
    points of the empirical CDF, suitable for plotting or printing.
    Raises [Invalid_argument] on any NaN sample (same policy as
    {!percentile}). *)

val sum : float array -> float
(** Kahan-compensated sum. *)

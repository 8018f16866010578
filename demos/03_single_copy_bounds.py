"""Single-copy error bounds: the global detector beats the local one.

For each thermal variance the error probability of the optimal joint
measurement is bracketed by the Chernoff-type and Bhattacharyya-type bounds;
the local strategy (Gaussian measurement on one mode, then the optimal
binary measurement on the other) is bracketed by its own pair.  The brackets
never cross: the global detector is strictly better whenever there is any
correlation to detect.
"""

from gaussdisc import bhattacharyya_global, info_bounds, p_lower_local, p_upper_local

header = (
    f"{'mu':>6} {'P-':>9} {'P+':>9} {'Ploc-':>9} {'Ploc+':>9}"
    f" {'I- [bits]':>10} {'I+ [bits]':>10}"
)
print(header)
for mu in (1.0, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0):
    glob = bhattacharyya_global(mu)
    i_lower, i_upper = info_bounds(glob.p_upper, glob.p_lower)
    print(
        f"{mu:6g} {glob.p_lower:9.5f} {glob.p_upper:9.5f}"
        f" {p_lower_local(mu):9.5f} {p_upper_local(mu).p_upper:9.5f}"
        f" {i_lower:10.5f} {i_upper:10.5f}"
    )

print("\nreading guide: P- <= P <= P+ (global), Ploc- <= Ploc <= Ploc+ (local),")
print("and the global bracket always sits below the local one.")

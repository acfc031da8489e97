"""Census table: how many schemes stall, up to ten travellers.

For every n <= 10 and every k, count the n x n riding schemes in which
each traveller rides k of the n stages and each stage carries k
bicycles, and how many of them cannot be executed without a stall.
That is far past what listing the matrices one by one can reach:
(10, 5) alone has about 6.7 * 10**18 of them.  enumerate_uniform
counts them exactly over row classes: a column is how many rows of
each class ride it, weighted by binomial coefficients.  The counts at
k and n - k agree (the binary dual), and no scheme stalls when
n <= 5, k <= 2 or k >= n - 2.  The table is Markdown.
"""

from bikerelay import enumerate_uniform

if __name__ == "__main__":
    print("| n | k | matrices | non-optimal | share |")
    print("|---:|---:|---:|---:|---:|")
    for n in range(1, 11):
        for k in range(n + 1):
            rep = enumerate_uniform(n, k, max_examples=0)
            share = 100 * rep.nonoptimal_count / rep.total_uniform
            print(
                f"| {n} | {k} | {rep.total_uniform:,} | "
                f"{rep.nonoptimal_count:,} | {share:.2f}% |"
            )

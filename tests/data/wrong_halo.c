void f(int n, float* u, float* out) {
#pragma acc localaccess(u: stride(1)) (out: stride(1))
#pragma acc parallel loop
for (int i = 0; i < n - 1; i++) { out[i] = u[i + 1]; }
}
